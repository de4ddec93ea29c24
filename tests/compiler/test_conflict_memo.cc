/**
 * @file
 * Conflict-memo tests: an Engine prices the bank-conflict multiplier
 * through its private kernels::ConflictMemo, which must change no
 * estimate bit and share no state between Engines.
 */
#include <gtest/gtest.h>

#include <vector>

#include "compiler/engine.h"
#include "gpusim/bank_conflict.h"
#include "vq/profiler.h"

namespace vqllm::compiler {
namespace {

using engine::OptLevel;

void
expectSameEstimate(const kernels::KernelResult &a,
                   const kernels::KernelResult &b)
{
    // Exact equality throughout: the memo returns the very value a
    // fresh estimate computes, so nothing downstream may move.
    EXPECT_EQ(a.latency.total_us, b.latency.total_us);
    const auto &x = a.counters;
    const auto &y = b.counters;
    EXPECT_EQ(x.dram_read_bytes, y.dram_read_bytes);
    EXPECT_EQ(x.dram_write_bytes, y.dram_write_bytes);
    EXPECT_EQ(x.global_to_shared_bytes, y.global_to_shared_bytes);
    EXPECT_EQ(x.shared_to_reg_bytes, y.shared_to_reg_bytes);
    EXPECT_EQ(x.reg_to_shared_bytes, y.reg_to_shared_bytes);
    EXPECT_EQ(x.smem_transactions, y.smem_transactions);
    EXPECT_EQ(x.smem_ideal_transactions, y.smem_ideal_transactions);
    EXPECT_EQ(x.flops, y.flops);
    EXPECT_EQ(x.dequant_lookups, y.dequant_lookups);
    EXPECT_EQ(x.unpack_ops, y.unpack_ops);
    EXPECT_EQ(x.shuffle_ops, y.shuffle_ops);
    EXPECT_EQ(x.reduce_bytes, y.reduce_bytes);
}

/** Unmemoized estimate of `request`, stitched by hand. */
kernels::KernelResult
directEstimate(const gpusim::GpuSpec &spec, const KernelRequest &request)
{
    engine::PlanInputs in;
    in.spec = &spec;
    in.histogram = request.histogram;
    if (request.kind == engine::OpKind::AttentionDecode)
        return kernels::estimateVqAttentionKernel(
            spec,
            engine::planAttentionKernel(request.attn, request.config,
                                        request.level, in),
            request.histogram);
    return kernels::estimateVqWeightKernel(
        spec,
        engine::planWeightKernel(request.kind, request.gemm,
                                 request.config, request.level, in),
        request.histogram);
}

/** Histograms sized to each config's stored entries, so the estimate
 *  takes its frequency-ranked path. */
struct Histograms
{
    vq::AccessHistogram gptvq2 =
        vq::syntheticZipfHistogram(vq::gptvq2().storedEntries());
    vq::AccessHistogram quip4 =
        vq::syntheticZipfHistogram(vq::quip4().storedEntries());
    vq::AccessHistogram cq2 =
        vq::syntheticZipfHistogram(vq::cq2().storedEntries());
};

/**
 * Every rung of the ladder for GeMV, GeMM and attention, with and
 * without a histogram, across two entry widths (8-byte GPTVQ-2/CQ-2
 * entries, 16-byte QuiP#-4 entries) and several shapes per config —
 * so the memo is hit by requests that differ only in shape.
 */
std::vector<KernelRequest>
requestMatrix(const Histograms &h)
{
    std::vector<KernelRequest> out;
    for (OptLevel level : engine::kAllOptLevels) {
        for (const vq::AccessHistogram *hist : {
                 static_cast<const vq::AccessHistogram *>(nullptr),
                 &h.gptvq2}) {
            out.push_back(KernelRequest::gemvOp(
                {1, 4096, 4096}, vq::gptvq2(), level, hist));
            out.push_back(KernelRequest::gemmOp(
                {16, 11008, 4096}, vq::gptvq2(), level, hist));
        }
        for (const vq::AccessHistogram *hist : {
                 static_cast<const vq::AccessHistogram *>(nullptr),
                 &h.quip4}) {
            out.push_back(KernelRequest::gemvOp(
                {1, 4096, 4096}, vq::quip4(), level, hist));
            out.push_back(KernelRequest::gemmOp(
                {16, 4096, 11008}, vq::quip4(), level, hist));
        }
        for (const vq::AccessHistogram *hist : {
                 static_cast<const vq::AccessHistogram *>(nullptr),
                 &h.cq2}) {
            out.push_back(KernelRequest::attentionOp(
                {1, 32, 1024, 128}, vq::cq2(), level, hist));
            out.push_back(KernelRequest::attentionOp(
                {8, 32, 4096, 128, 8}, vq::cq2(), level, hist));
        }
    }
    return out;
}

TEST(ConflictMemo, EngineEstimatesMatchUnmemoizedPipeline)
{
    const auto &spec = gpusim::rtx4090();
    Histograms h;
    auto requests = requestMatrix(h);
    ASSERT_NE(vq::gptvq2().entryBytes(), vq::quip4().entryBytes());

    Engine eng(spec);
    for (const auto &request : requests) {
        SCOPED_TRACE(eng.cacheKey(request));
        expectSameEstimate(eng.compile(request)->estimate(),
                           directEstimate(spec, request));
    }
    // Shapes never enter the multiplier, so distinct inputs are far
    // fewer than compiles.
    EXPECT_EQ(eng.stats().misses, requests.size());
    EXPECT_GT(eng.conflictMemoSize(), 0u);
    EXPECT_LT(eng.conflictMemoSize(), requests.size() / 2);
}

TEST(ConflictMemo, FreshEnginesComputeTheirOwnMultipliers)
{
    Histograms h;
    auto requests = requestMatrix(h);

    Engine first(gpusim::rtx4090());
    for (const auto &request : requests)
        first.compile(request);
    const std::size_t computed = first.conflictMemoSize();
    ASSERT_GT(computed, 0u);

    // A second Engine starts empty and prices every distinct input
    // itself: nothing is shared through a process-wide store.
    Engine second(gpusim::rtx4090());
    EXPECT_EQ(second.conflictMemoSize(), 0u);
    for (const auto &request : requests)
        second.compile(request);
    EXPECT_EQ(second.conflictMemoSize(), computed);
    EXPECT_EQ(first.conflictMemoSize(), computed);

    // clearCache() empties the memo along with the artifacts.
    first.clearCache();
    EXPECT_EQ(first.conflictMemoSize(), 0u);
}

TEST(ConflictMemo, KeysOnEveryInput)
{
    const auto &spec = gpusim::rtx4090();
    const std::vector<double> weights(64, 1.0);
    kernels::ConflictMemo memo;

    double m = memo.multiplier(spec, weights, 8, 64, 7);
    EXPECT_EQ(m, gpusim::expectedConflictMultiplier(spec, weights, 8, 64,
                                                    7));
    EXPECT_EQ(memo.multiplier(spec, weights, 8, 64, 7), m);
    EXPECT_EQ(memo.size(), 1u);

    gpusim::GpuSpec wide = spec;
    wide.warp_size = 64;
    gpusim::GpuSpec few_banks = spec;
    few_banks.smem_banks = 16;
    std::vector<double> skewed = weights;
    skewed[0] = 5.0;
    memo.multiplier(spec, skewed, 8, 64, 7);
    memo.multiplier(spec, weights, 16, 64, 7);
    memo.multiplier(spec, weights, 8, 32, 7);
    memo.multiplier(spec, weights, 8, 64, 8);
    memo.multiplier(wide, weights, 8, 64, 7);
    EXPECT_EQ(memo.multiplier(few_banks, weights, 8, 64, 7),
              gpusim::expectedConflictMultiplier(few_banks, weights, 8,
                                                 64, 7));
    EXPECT_EQ(memo.size(), 7u);
}

} // namespace
} // namespace vqllm::compiler
