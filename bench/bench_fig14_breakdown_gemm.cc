/**
 * @file
 * Reproduces paper Fig. 14: optimization breakdown for GeMM (upper) and
 * GeMV (lower) with QuiP#-4, AQLM-3 and GPTVQ-2 weight quantization on
 * Llama-7B shapes.
 */
#include <cstdio>

#include "bench_common.h"

using namespace vqllm;
using namespace vqllm::bench;

namespace {

void
printBreakdown(compiler::Engine &eng, engine::OpKind kind,
               const engine::GemmShape &shape, const char *title)
{
    std::printf("%s (m=%zu, n=%zu, k=%zu)\n\n", title, shape.m, shape.n,
                shape.k);
    TextTable table({"config", "GC", "SC", "O1", "O2", "O3", "O4",
                     "best", "best/GC"});
    for (const auto &cfg :
         {vq::quip4(), vq::aqlm3(), vq::gptvq2()}) {
        std::vector<std::string> row = {cfg.name};
        double gc_us = 0, best = 1e30;
        engine::OptLevel best_level = engine::OptLevel::O1;
        for (auto level : engine::kAllOptLevels) {
            auto r = weightAtLevel(eng, kind, shape, cfg, level);
            if (level == engine::OptLevel::GC)
                gc_us = r.us();
            if (level >= engine::OptLevel::O1 && r.us() < best) {
                best = r.us();
                best_level = level;
            }
            row.push_back(formatDouble(r.us(), 1));
        }
        row.push_back(engine::optLevelName(best_level));
        row.push_back(formatPercent(1.0 - best / gc_us, 1));
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
}

} // namespace

int
main()
{
    const auto &spec = gpusim::rtx4090();
    compiler::Engine eng(spec);
    auto shapes = llama7b();

    std::printf("Fig. 14: optimization breakdown, latency in us "
                "(Llama-7B, %s)\n\n", spec.name.c_str());
    printBreakdown(eng, engine::OpKind::GeMM, shapes.gemm(4096),
                   "GeMM (prefill-scale batch)");
    printBreakdown(eng, engine::OpKind::GeMV, shapes.gemm(1),
                   "GeMV BS1");
    printBreakdown(eng, engine::OpKind::GeMV, shapes.gemm(16),
                   "GeMV BS16");

    std::printf(
        "paper trends: SC==O1 for QuiP# (tiny books); SC hurts AQLM "
        "GeMV (128 KiB books);\nO2 largest for AQLM (15-30 hot "
        "entries); O3 negative for GeMM / positive for GeMV;\nO4 "
        "strong for GeMM (mma layout), mixed for GeMV.\n");
    return 0;
}
