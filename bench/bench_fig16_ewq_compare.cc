/**
 * @file
 * Reproduces paper Fig. 16: optimized VQ kernels against FP16 libraries
 * (cutlass / flash-attn analogues), element-wise quantization at equal
 * 4-bit width (AWQ for GeMM/GeMV, QoQ for attention), and the
 * open-source VQ implementations (represented by the GC version, per
 * Sec. III — paper reports 2.83x to 114.4x slowdowns for them).
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

    // ---- GeMM ----------------------------------------------------------
    std::printf("Fig. 16: latency relative to element-wise quantization "
                "(%s, Llama-7B shapes)\n\n", spec.name.c_str());
    {
        auto shape = shapes.gemm(4096);
        auto awq = kernels::ewqGemmEstimate(spec, shape, 4);
        auto cutlass = kernels::fp16GemmEstimate(spec, shape);
        TextTable t({"GeMM kernel", "latency (us)", "vs AWQ-4bit"});
        t.addRow({"AWQ-4bit (qServe)", formatDouble(awq.us(), 1),
                  "1.00x"});
        t.addRow({"cutlass-16", formatDouble(cutlass.us(), 1),
                  formatRatio(cutlass.us(), awq.us())});
        for (const auto &cfg : {vq::quip4(), vq::gptvq2()}) {
            auto best =
                bestWeight(eng, engine::OpKind::GeMM, shape, cfg);
            t.addRow({cfg.name, formatDouble(best.us(), 1),
                      formatRatio(best.us(), awq.us())});
            auto open = weightAtLevel(eng, engine::OpKind::GeMM, shape,
                                      cfg, engine::OptLevel::GC);
            t.addRow({cfg.name + std::string("* (open source)"),
                      formatDouble(open.us(), 1),
                      formatRatio(open.us(), awq.us())});
        }
        std::printf("%s\n", t.render().c_str());
    }

    // ---- GeMV BS16 --------------------------------------------------------
    {
        auto shape = shapes.gemm(16);
        auto awq = kernels::ewqGemvEstimate(spec, shape, 4);
        auto cutlass = kernels::fp16GemvEstimate(spec, shape);
        TextTable t({"GeMV BS16 kernel", "latency (us)", "vs AWQ-4bit"});
        t.addRow({"AWQ-4bit (qServe)", formatDouble(awq.us(), 1),
                  "1.00x"});
        t.addRow({"cutlass-16", formatDouble(cutlass.us(), 1),
                  formatRatio(cutlass.us(), awq.us())});
        for (const auto &cfg : {vq::quip4(), vq::gptvq2()}) {
            auto best =
                bestWeight(eng, engine::OpKind::GeMV, shape, cfg);
            t.addRow({cfg.name, formatDouble(best.us(), 1),
                      formatRatio(best.us(), awq.us())});
            auto open = weightAtLevel(eng, engine::OpKind::GeMV, shape,
                                      cfg, engine::OptLevel::GC);
            t.addRow({cfg.name + std::string("* (open source)"),
                      formatDouble(open.us(), 1),
                      formatRatio(open.us(), awq.us())});
        }
        std::printf("%s\n", t.render().c_str());
        std::printf("paper: VQ-LLM 0.88x of AWQ for GeMV; open-source "
                    "impls 2.83x-114.4x\n\n");
    }

    // ---- Attention BS1 1k ---------------------------------------------------
    {
        auto shape = shapes.attention(1, 1024);
        auto qoq = kernels::ewqAttentionEstimate(spec, shape, 4);
        auto flash = kernels::fp16AttentionEstimate(spec, shape);
        TextTable t({"Attention kernel", "latency (us)", "vs QoQ-4bit"});
        t.addRow({"QoQ-4bit (qServe)", formatDouble(qoq.us(), 1),
                  "1.00x"});
        t.addRow({"Flash-16", formatDouble(flash.us(), 1),
                  formatRatio(flash.us(), qoq.us())});
        for (const auto &cfg : {vq::cq4(), vq::cq2()}) {
            auto best = bestAttn(eng, shape, cfg);
            t.addRow({cfg.name, formatDouble(best.us(), 1),
                      formatRatio(best.us(), qoq.us())});
        }
        auto open = attnAtLevel(eng, shape, vq::cq4(),
                                engine::OptLevel::GC);
        t.addRow({"CQ-4 (GC, open-source class)",
                  formatDouble(open.us(), 1),
                  formatRatio(open.us(), qoq.us())});
        std::printf("%s\n", t.render().c_str());
        std::printf("paper: VQ-LLM ~1.01x of QoQ at 4-bit; both beat "
                    "Flash-16.\n");
    }
    return 0;
}
