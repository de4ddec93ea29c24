/**
 * @file
 * Reproduces paper Fig. 18: relative latency of FP16 attention
 * baselines (Flash Decoding, Paged Flash Decoding, Flash Attention,
 * Paged Flash Attention) against the best VQ-LLM implementation of
 * CQ-4, across sequence lengths (1k/2k/4k) and batch sizes (1/8).
 * Paper headline: 66.4% latency reduction vs the best FP16 baseline at
 * BS8/4k with a 75% KV memory reduction.
 */
#include <cstdio>

#include "bench_common.h"

using namespace vqllm;
using namespace vqllm::bench;

int
main()
{
    const auto &spec = gpusim::rtx4090();
    compiler::Engine eng(spec);
    auto shapes = llama7b();

    std::printf("Fig. 18: FP16 attention baselines relative to VQ-LLM "
                "CQ-4 (best version), %s\n\n", spec.name.c_str());
    using kernels::AttnVariant;
    const AttnVariant variants[] = {
        AttnVariant::FlashDecoding,
        AttnVariant::PagedFlashDecoding,
        AttnVariant::FlashAttention,
        AttnVariant::PagedFlashAttention,
    };

    for (std::size_t bs : {1u, 8u}) {
        TextTable t({"seq_len", "VQ-LLM CQ-4 (us)", "Flash Decoding",
                     "Paged Flash Dec.", "Flash Attention",
                     "Paged Flash Attn", "best-FP16 reduction"});
        for (std::size_t seq : {1024u, 2048u, 4096u}) {
            auto shape = shapes.attention(bs, seq);
            auto vq_best = bestAttn(eng, shape, vq::cq4());
            std::vector<std::string> row = {
                std::to_string(seq / 1024) + "k",
                formatDouble(vq_best.us(), 1)};
            double best_fp16 = 1e30;
            for (auto variant : variants) {
                auto r = kernels::fp16AttentionEstimate(spec, shape,
                                                        variant);
                best_fp16 = std::min(best_fp16, r.us());
                row.push_back(formatRatio(r.us(), vq_best.us()));
            }
            row.push_back(
                formatPercent(1.0 - vq_best.us() / best_fp16, 1));
            t.addRow(row);
        }
        std::printf("BS%zu:\n%s\n", bs, t.render().c_str());
    }
    std::printf("paper: VQ-LLM beats all baselines; 66.4%% reduction "
                "vs best FP16 at BS8/4k; scales with\nsequence length "
                "and batch size; KV footprint reduced 75%% by CQ-4.\n");
    return 0;
}
