/**
 * @file
 * Reproduces paper Tbl. V: the factors that influence each
 * optimization's effect — per-block codebook working set, number of hot
 * entries (freq > mu+3sigma), per-block output size, and the required
 * shuffle count per op.
 */
#include <cstdio>

#include "bench_common.h"

using namespace vqllm;
using namespace vqllm::bench;

int
main()
{
    const auto &spec = gpusim::rtx4090();
    std::printf("Tbl. V: factors that influence the effect of "
                "optimizations (Llama-7B shapes)\n\n");

    TextTable t({"item", "QuiP#-4", "AQLM-3", "GPTVQ-2", "CQ-2"});
    compiler::Engine eng(spec);

    std::vector<vq::VQConfig> cfgs = {vq::quip4(), vq::aqlm3(),
                                      vq::gptvq2(), vq::cq2()};

    // Codebook working set per block (the SC residency of Sec. III).
    std::vector<std::string> row = {"codebook/block"};
    for (const auto &cfg : cfgs) {
        bool kv = cfg.scope == vq::CodebookScope::PerChannelGroup;
        auto request =
            kv ? compiler::KernelRequest::attentionOp(
                     {1, 32, 1024, 128}, cfg, engine::OptLevel::SC)
               : compiler::KernelRequest::gemvOp(
                     {1, 4096, 4096}, cfg, engine::OptLevel::SC);
        auto kernel = eng.compile(request);
        row.push_back(formatBytes(static_cast<double>(
            kernel->plan().resident_books * cfg.codebookBytes())));
    }
    t.addRow(row);

    // Hot entries above mu + 3 sigma from profiled histograms.
    row = {"#entries freq > mu+3sigma"};
    for (const auto &cfg : cfgs) {
        bool kv = cfg.scope == vq::CodebookScope::PerChannelGroup;
        const auto &hist = sampleHistogram(cfg, kv);
        row.push_back(std::to_string(hist.entriesAbove(3.0)));
    }
    t.addRow(row);

    // Output size per block.
    row = {"output/block (GeMM/GeMV)"};
    for (const auto &cfg : cfgs) {
        if (cfg.scope == vq::CodebookScope::PerChannelGroup) {
            // Attention: per-block partial logits (seq tokens x 4 B).
            row.push_back(formatBytes(1024.0 * 4) + " (logits)");
        } else {
            row.push_back(formatBytes(128.0 * 128 * 2) + " / " +
                          formatBytes(128.0 * 2));
        }
    }
    t.addRow(row);

    // Shuffle counts per op kind (the paper's "3/7*" notation).
    row = {"#shuffle (GeMM/GeMV or attn)"};
    for (const auto &cfg : cfgs) {
        if (cfg.scope == vq::CodebookScope::PerChannelGroup) {
            auto f = engine::planFusion(cfg,
                                        engine::OpKind::AttentionDecode,
                                        32, 1000);
            row.push_back(std::to_string(f.num_shuffles));
        } else {
            auto g = engine::planFusion(cfg, engine::OpKind::GeMM, 32,
                                        1000);
            auto v = engine::planFusion(cfg, engine::OpKind::GeMV, 32,
                                        1000);
            row.push_back(std::to_string(g.num_shuffles) + "/" +
                          std::to_string(v.num_shuffles));
        }
    }
    t.addRow(row);

    std::printf("%s\n", t.render().c_str());
    std::printf("paper values: codebook/block 2KB*/128KB/32KB/64KB "
                "(*our QuiP# stores 256x8 FP16 = 4KB x 2 residuals);\n"
                "hot entries 1-3 / 15-30 / <1 / <1; output 32KB//<1KB "
                "and 1-4KB; shuffles 3/7*, 3/7*, 1/3, 3.\n");
    return 0;
}
