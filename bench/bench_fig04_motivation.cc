/**
 * @file
 * Reproduces paper Fig. 4: the motivation study.
 *
 * (left)  Latency of VQ-attn-GC and VQ-attn-SC relative to FP16-attn
 *         (FlashDecoding) on a Llama-7B attention decode with CQ-2
 *         (VQ<4,8,1>) quantized KV cache, RTX 4090.
 * (right) Performance counters of VQ-attn-SC relative to FP16-attn:
 *         SM utilization, shared-memory usage, bank conflicts,
 *         global->shared traffic, shared->reg traffic.
 */
#include <cstdio>

#include "bench_common.h"

using namespace vqllm;
using namespace vqllm::bench;

int
main()
{
    const auto &spec = gpusim::rtx4090();
    auto shapes = llama7b();
    auto shape = shapes.attention(1, 1024);
    auto cfg = vq::cq2();
    const auto &hist = sampleHistogram(cfg, /*kv=*/true);

    auto fp16 = kernels::fp16AttentionEstimate(
        spec, shape, kernels::AttnVariant::FlashDecoding);

    compiler::Engine eng(spec);
    auto kernel_gc = eng.compile(compiler::KernelRequest::attentionOp(
        shape, cfg, engine::OptLevel::GC, &hist));
    auto kernel_sc = eng.compile(compiler::KernelRequest::attentionOp(
        shape, cfg, engine::OptLevel::SC, &hist));
    const auto &plan_sc = kernel_sc->plan();
    const auto &gc = kernel_gc->estimate();
    const auto &sc = kernel_sc->estimate();

    std::printf("Fig. 4 (left): latency relative to FP16-attn "
                "(Llama-7B, CQ-2 VQ<4,8,1>, seq 1024, BS1, %s)\n\n",
                spec.name.c_str());
    TextTable left({"kernel", "latency (us)", "relative"});
    left.addRow({"FP16-attn", formatDouble(fp16.us()),
                 formatRatio(fp16.us(), fp16.us())});
    left.addRow({"VQ-attn-GC", formatDouble(gc.us()),
                 formatRatio(gc.us(), fp16.us())});
    left.addRow({"VQ-attn-SC", formatDouble(sc.us()),
                 formatRatio(sc.us(), fp16.us())});
    std::printf("%s\n", left.render().c_str());
    std::printf("paper: VQ-attn-GC ~2.52x, VQ-attn-SC ~1.6x "
                "(both slower than FP16)\n\n");

    std::printf("Fig. 4 (right): VQ-attn-SC performance counters "
                "relative to FP16-attn\n\n");
    double sm_util_ratio =
        sc.latency.throughput_factor / fp16.latency.throughput_factor;
    double shared_usage_ratio =
        static_cast<double>(plan_sc.block.smem_bytes) /
        engine::baseBlockResources(engine::OpKind::AttentionDecode, false)
            .smem_bytes;
    double conflict_ratio = sc.counters.conflictMultiplier() /
                            fp16.counters.conflictMultiplier();
    double g2s_ratio =
        static_cast<double>(sc.counters.global_to_shared_bytes) /
        static_cast<double>(fp16.counters.global_to_shared_bytes);
    double s2r_ratio =
        static_cast<double>(sc.counters.shared_to_reg_bytes) /
        static_cast<double>(fp16.counters.global_to_shared_bytes);

    TextTable right({"counter", "SC / FP16", "paper trend"});
    right.addRow({"SM utilization", formatDouble(sm_util_ratio),
                  "~0.7 (30% drop)"});
    right.addRow({"shared usage", formatDouble(shared_usage_ratio),
                  ">4x"});
    right.addRow({"shared bank conflict", formatDouble(conflict_ratio),
                  ">3x"});
    right.addRow({"global->shared traffic", formatDouble(g2s_ratio),
                  ">1x (counterintuitive)"});
    right.addRow({"shared->reg traffic", formatDouble(s2r_ratio),
                  ">1x"});
    std::printf("%s\n", right.render().c_str());

    std::printf("takeaway 1/2: codebooks must be cached on-chip, but "
                "greedy shared placement hurts occupancy and conflicts;\n"
                "codebook load and compute dataflow must be "
                "coordinated.\n");
    return 0;
}
