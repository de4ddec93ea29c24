/**
 * @file
 * Ablation benches for VQ-LLM's adaptive heuristics (DESIGN.md):
 *
 *  1. split-factor sweep — latency across forced split factors vs the
 *     heuristic's choice (Sec. VI-A's Traffic_reduce/Traffic_codebook
 *     balance);
 *  2. fusion-threshold sweep — register vs shared fusion across
 *     thresholds (Sec. VI-B's profiled value of 5);
 *  3. cache-boundary sweep — latency as the shared boundary moves from
 *     0 (GC-like) to greedy (SC-like), showing the slack-derived choice
 *     sits at the knee.
 */
#include <algorithm>
#include <cstdio>

#include "bench_common.h"

using namespace vqllm;
using namespace vqllm::bench;

int
main()
{
    const auto &spec = gpusim::rtx4090();
    auto shapes = llama7b();
    const auto &hist = sampleHistogram(vq::cq2(), /*kv=*/true);
    compiler::Engine eng(spec);

    // ---- 1. split-factor sweep --------------------------------------
    std::printf("Ablation 1: dataflow split factor (CQ-2 attention, "
                "4k BS8)\n\n");
    auto shape = shapes.attention(8, 4096);
    auto heuristic = eng.compile(compiler::KernelRequest::attentionOp(
                                     shape, vq::cq2(),
                                     engine::OptLevel::O3, &hist))
                         ->plan();
    TextTable t1({"split", "codebook MB", "reduce MB", "latency (us)",
                  "note"});
    std::vector<std::uint64_t> splits = {1, 2, 4, 8, 16, 32,
                                         heuristic.dataflow.split};
    std::sort(splits.begin(), splits.end());
    splits.erase(std::unique(splits.begin(), splits.end()),
                 splits.end());
    for (std::uint64_t split : splits) {
        auto plan = heuristic;
        plan.dataflow.split = split;
        plan.dataflow.codebook_bytes =
            plan.dataflow.baseline_codebook_bytes / split;
        plan.dataflow.reduce_bytes =
            split > 1 ? split * plan.dataflow.output_bytes : 0;
        plan.grid_blocks = 8ull * 32 * split;
        auto r = kernels::estimateVqAttentionKernel(spec, plan, &hist);
        t1.addRow({std::to_string(split),
                   formatDouble(plan.dataflow.codebook_bytes / 1e6, 1),
                   formatDouble(plan.dataflow.reduce_bytes / 1e6, 1),
                   formatDouble(r.us(), 1),
                   split == heuristic.dataflow.split ? "<- heuristic"
                                                     : ""});
    }
    std::printf("%s\n", t1.render().c_str());

    // ---- 2. fusion-threshold sweep -----------------------------------
    std::printf("Ablation 2: fusion threshold (shuffles allowed before "
                "falling back to shared fusion)\n\n");
    TextTable t2({"config/op", "#shuffles", "thr=0", "thr=5 (paper)",
                  "thr=100"});
    struct Case
    {
        vq::VQConfig cfg;
        engine::OpKind kind;
    };
    for (const Case &c : {Case{vq::quip4(), engine::OpKind::GeMM},
                          Case{vq::quip4(), engine::OpKind::GeMV},
                          Case{vq::gptvq2(), engine::OpKind::GeMV}}) {
        std::vector<std::string> row = {
            c.cfg.name + std::string("/") + engine::opKindName(c.kind)};
        auto probe = engine::planFusion(c.cfg, c.kind, 32, 1000);
        row.push_back(std::to_string(probe.num_shuffles));
        for (int thr : {0, 5, 100}) {
            auto f = engine::planFusion(c.cfg, c.kind, 32, thr);
            row.push_back(engine::fusionLevelName(f.level));
        }
        t2.addRow(row);
    }
    std::printf("%s\n", t2.render().c_str());

    // ---- 3. cache-boundary sweep ---------------------------------------
    std::printf("Ablation 3: shared-cache boundary (CQ-2 attention 1k "
                "BS1; slack-derived plan vs forced)\n\n");
    auto base = eng.compile(compiler::KernelRequest::attentionOp(
                                shapes.attention(1, 1024), vq::cq2(),
                                engine::OptLevel::O2, &hist))
                    ->plan();
    TextTable t3({"n_shared", "smem/block", "blocks/SM", "latency (us)",
                  "note"});
    for (std::size_t n_shared :
         {std::size_t(0), std::size_t(64), std::size_t(128),
          base.cache_plan.n_shared, std::size_t(1024),
          std::size_t(8192)}) {
        auto plan = base;
        plan.cache_plan.n_reg = std::min(plan.cache_plan.n_reg,
                                         n_shared);
        plan.cache_plan.n_shared =
            std::min(n_shared, plan.cache_plan.total_entries * 32);
        plan.block = engine::baseBlockResources(
            engine::OpKind::AttentionDecode, true);
        plan.block.smem_bytes += 128 * 4 * 2 * 2; // staging
        plan.block.smem_bytes += plan.cache_plan.smemBytes();
        plan.block.regs_per_thread += plan.cache_plan.regsPerThread();
        auto occ = gpusim::computeOccupancy(spec, plan.block);
        auto r = kernels::estimateVqAttentionKernel(spec, plan, &hist);
        t3.addRow({std::to_string(plan.cache_plan.n_shared),
                   formatBytes(static_cast<double>(
                       plan.block.smem_bytes)),
                   std::to_string(occ.blocks_per_sm),
                   formatDouble(r.us(), 1),
                   plan.cache_plan.n_shared == base.cache_plan.n_shared
                       ? "<- slack heuristic"
                       : ""});
    }
    std::printf("%s\n", t3.render().c_str());
    std::printf("the slack-derived boundary caches the hot set without "
                "losing a resident block;\nforcing more shared memory "
                "re-creates the SC occupancy cliff.\n");
    return 0;
}
