/**
 * @file
 * Reproduces paper Fig. 15: optimization breakdown for Attention
 * (Decode) with CQ-2 across sequence lengths and batch sizes (left),
 * and CQ-4 latency relative to CQ-2 (right).
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
    struct Case
    {
        const char *name;
        std::size_t batch, seq;
    };
    const Case cases[] = {
        {"1k BS1", 1, 1024},
        {"1k BS8", 8, 1024},
        {"4k BS1", 1, 4096},
        {"4k BS8", 8, 4096},
    };

    std::printf("Fig. 15 (left): CQ-2 Attention (Decode) breakdown, "
                "latency in us (Llama-7B, %s)\n\n", spec.name.c_str());
    TextTable table({"case", "GC", "SC", "O1", "O2", "O3", "O4",
                     "best/GC"});
    for (const auto &c : cases) {
        auto shape = shapes.attention(c.batch, c.seq);
        std::vector<std::string> row = {c.name};
        double gc_us = 0, best = 1e30;
        for (auto level : engine::kAllOptLevels) {
            auto r = attnAtLevel(eng, shape, vq::cq2(), level);
            if (level == engine::OptLevel::GC)
                gc_us = r.us();
            if (level >= engine::OptLevel::O1)
                best = std::min(best, r.us());
            row.push_back(formatDouble(r.us(), 1));
        }
        row.push_back(formatPercent(1.0 - best / gc_us, 1) +
                      " reduced");
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: SC < GC only with O1; O3 gives the largest "
                "gain; O4 minor for attention.\n\n");

    std::printf("Fig. 15 (right): CQ-4 latency relative to CQ-2 "
                "(best version)\n\n");
    TextTable right({"case", "CQ-2 (us)", "CQ-4 (us)", "CQ-4/CQ-2"});
    for (const auto &c : cases) {
        auto shape = shapes.attention(c.batch, c.seq);
        auto cq2_best = bestAttn(eng, shape, vq::cq2());
        auto cq4_best = bestAttn(eng, shape, vq::cq4());
        right.addRow({c.name, formatDouble(cq2_best.us(), 1),
                      formatDouble(cq4_best.us(), 1),
                      formatRatio(cq4_best.us(), cq2_best.us())});
    }
    std::printf("%s\n", right.render().c_str());
    std::printf("paper: CQ-4 slightly above CQ-2 (2x the index "
                "bytes), similar optimization speedups.\n");
    return 0;
}
