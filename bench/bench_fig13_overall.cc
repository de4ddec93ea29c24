/**
 * @file
 * Reproduces paper Fig. 13: overall latency reduction of the
 * best-performing VQ-LLM version against the un-optimized (GC) version,
 * across kernels, configurations, batch sizes, sequence lengths and
 * model scales.  Paper headline: 46.13% mean reduction (53.73% max per
 * category, up to 1.9x-2.2x speedup).
 */
#include <cstdio>

#include "bench_common.h"

using namespace vqllm;
using namespace vqllm::bench;

namespace {

double
weightReduction(compiler::Engine &eng, engine::OpKind kind,
                const engine::GemmShape &shape, const vq::VQConfig &cfg)
{
    auto gc = weightAtLevel(eng, kind, shape, cfg,
                            engine::OptLevel::GC);
    auto best = bestWeight(eng, kind, shape, cfg);
    return 1.0 - best.us() / gc.us();
}

double
attnReduction(compiler::Engine &eng,
              const engine::AttnShape &shape, const vq::VQConfig &cfg)
{
    auto gc = attnAtLevel(eng, shape, cfg, engine::OptLevel::GC);
    auto best = bestAttn(eng, shape, cfg);
    return 1.0 - best.us() / gc.us();
}

} // namespace

int
main()
{
    const auto &spec = gpusim::rtx4090();
    compiler::Engine eng(spec);
    std::printf("Fig. 13: latency reduction of the best version vs the "
                "un-optimized (GC) version (%s)\n\n", spec.name.c_str());

    double sum = 0;
    int count = 0;
    for (auto [model_name, shapes] :
         {std::pair{"Llama-7B", llama7b()},
          std::pair{"Llama-65B", llama65b()}}) {
        TextTable table({"kernel", "QuiP#-4", "AQLM-3", "GPTVQ-2"});
        struct WCase
        {
            const char *name;
            engine::OpKind kind;
            std::size_t m;
        };
        for (const WCase &c :
             {WCase{"GeMM", engine::OpKind::GeMM, 4096},
              WCase{"GeMV BS1", engine::OpKind::GeMV, 1},
              WCase{"GeMV BS16", engine::OpKind::GeMV, 16}}) {
            std::vector<std::string> row = {c.name};
            for (const auto &cfg :
                 {vq::quip4(), vq::aqlm3(), vq::gptvq2()}) {
                double red = weightReduction(eng, c.kind,
                                             shapes.gemm(c.m), cfg);
                sum += red;
                ++count;
                row.push_back(formatPercent(red, 1));
            }
            table.addRow(row);
        }
        std::printf("%s weight kernels:\n%s\n", model_name,
                    table.render().c_str());

        TextTable attn({"attention case", "CQ-2 BS1", "CQ-2 BS8"});
        for (std::size_t seq : {1024u, 4096u}) {
            std::vector<std::string> row = {
                std::to_string(seq / 1024) + "k"};
            for (std::size_t bs : {1u, 8u}) {
                double red = attnReduction(
                    eng, shapes.attention(bs, seq), vq::cq2());
                sum += red;
                ++count;
                row.push_back(formatPercent(red, 1));
            }
            attn.addRow(row);
        }
        std::printf("%s attention (decode):\n%s\n", model_name,
                    attn.render().c_str());
    }

    std::printf("mean latency reduction: %s  (paper: 46.13%% mean, "
                "53.73%% max, ~1.9x speedup)\n",
                formatPercent(sum / count, 2).c_str());
    return 0;
}
