/**
 * @file
 * Tensor-parallel serving tests: the scheduler-level iteration pricer
 * must agree with the analytical llm::estimateTensorParallel model,
 * degree 1 must be bit-identical to the unsharded pricing formula, and
 * TP simulations must stay deterministic across thread counts and
 * repeated runs (TP runs move raw Request pointers through preemption
 * paths — any lifetime or ordering bug shows up here), and degrees that
 * do not split the model evenly must be fatal.
 */
#include <gtest/gtest.h>

#include "common/parallel.h"
#include "compiler/engine.h"
#include "llm/ops.h"
#include "llm/tensor_parallel.h"
#include "serving/simulator.h"

namespace vqllm::serving {
namespace {

using gpusim::rtx4090;

struct ThreadGuard
{
    ~ThreadGuard() { par::setThreads(0); }
};

llm::TpConfig
nvlink(int degree)
{
    llm::TpConfig tp;
    tp.degree = degree;
    return tp;
}

/** A decode batch of `n` requests whose context is exactly `ctx`. */
std::vector<Request>
decodeBatch(std::size_t n, std::size_t ctx)
{
    std::vector<Request> reqs(n);
    for (std::size_t i = 0; i < n; ++i) {
        reqs[i].id = i;
        reqs[i].prompt_len = ctx;
        reqs[i].max_new_tokens = 64;
    }
    return reqs;
}

std::vector<Request *>
ptrs(std::vector<Request> &reqs)
{
    std::vector<Request *> out;
    for (auto &r : reqs)
        out.push_back(&r);
    return out;
}

void
expectReportsIdentical(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.ttft.count, b.ttft.count);
    EXPECT_EQ(a.ttft.p99_us, b.ttft.p99_us);
    EXPECT_EQ(a.tbt.count, b.tbt.count);
    EXPECT_EQ(a.tbt.p50_us, b.tbt.p50_us);
    EXPECT_EQ(a.tbt.p99_us, b.tbt.p99_us);
    EXPECT_EQ(a.e2e.mean_us, b.e2e.mean_us);
    EXPECT_EQ(a.sim_time_us, b.sim_time_us);
    EXPECT_EQ(a.busy_time_us, b.busy_time_us);
    EXPECT_EQ(a.tokens_per_sec, b.tokens_per_sec);
    EXPECT_EQ(a.completed_requests, b.completed_requests);
    EXPECT_EQ(a.rejected_requests, b.rejected_requests);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.kv_peak_bytes, b.kv_peak_bytes);
    EXPECT_EQ(a.comm_us, b.comm_us);
    EXPECT_EQ(a.comm_fraction, b.comm_fraction);
    EXPECT_EQ(a.kv_capacity_bytes, b.kv_capacity_bytes);
    EXPECT_EQ(a.plan_cache_misses, b.plan_cache_misses);
}

// ---------------------------------------------------------------------
// Pricing consistency with the analytical model

TEST(TpPricing, SteadyStateDecodeMatchesEstimateTensorParallel)
{
    // A homogeneous decode batch at a bucket-aligned context is exactly
    // the analytical model's representative step: the two TP models
    // must agree to floating-point noise (they share shard-geometry
    // helpers, so any drift is a real modeling divergence).
    const std::size_t batch = 8;
    const std::size_t ctx = 512; // multiple of IterationPricer::kSeqBucket
    for (auto scheme : {llm::QuantScheme::FP16, llm::QuantScheme::VQ4}) {
        for (int degree : {2, 4}) {
            compiler::Engine eng(rtx4090());
            IterationPricer pricer(eng, llm::llama7b(), scheme,
                                   llm::defaultKvScheme(scheme),
                                   nvlink(degree));
            auto reqs = decodeBatch(batch, ctx);
            auto batch_ptrs = ptrs(reqs);
            double step_us = pricer.decodeUs(batch_ptrs);

            llm::E2EConfig e2e;
            e2e.batch = batch;
            e2e.prompt_len = ctx - 1;
            e2e.gen_tokens = 2; // mid_seq = ctx
            auto est = llm::estimateTensorParallel(
                rtx4090(), llm::llama7b(), scheme, nvlink(degree), e2e);
            double est_step_us = est.decode_us / 2.0;
            EXPECT_NEAR(step_us, est_step_us, est_step_us * 1e-9)
                << "scheme " << llm::quantSchemeName(scheme)
                << " degree " << degree;
            // Communication shares agree too.
            EXPECT_NEAR(pricer.commUs(), est.comm_us_per_step,
                        est.comm_us_per_step * 1e-9);
        }
    }
}

TEST(TpPricing, Degree1IsBitIdenticalToUnshardedFormula)
{
    const std::size_t batch = 4;
    const std::size_t ctx = 256;
    compiler::Engine eng(rtx4090());
    compiler::Engine ref_eng(rtx4090());
    IterationPricer pricer(eng, llm::llama7b(), llm::QuantScheme::VQ4,
                           llm::KvScheme::VQ4, llm::TpConfig{});
    auto reqs = decodeBatch(batch, ctx);
    auto batch_ptrs = ptrs(reqs);
    double priced = pricer.decodeUs(batch_ptrs);

    // The pre-TP pricing formula, reproduced verbatim.
    const auto &model = llm::llama7b();
    double linear_us = 0;
    for (auto [n, k] : model.layerLinearShapes())
        linear_us += llm::schemeLinearUs(
            ref_eng, llm::QuantScheme::VQ4,
            engine::GemmShape{batch, n, k});
    double elem_us = llm::elementwiseLayerLatencyUs(
        eng.spec(), batch, model.hidden);
    double attn_us = llm::kvSchemeAttentionUs(
        ref_eng, llm::KvScheme::VQ4, model.attnShape(batch, ctx));
    double expected =
        (linear_us + elem_us + attn_us) * static_cast<double>(model.layers);
    EXPECT_DOUBLE_EQ(priced, expected);
    EXPECT_DOUBLE_EQ(pricer.commUs(), 0.0);

    // Prefill chunks at degree 1 price through the unsharded estimate.
    EXPECT_DOUBLE_EQ(
        pricer.prefillChunkUs(256, 512),
        llm::estimateChunkedPrefillUs(eng.spec(), model, 256, 512));
    EXPECT_DOUBLE_EQ(pricer.prefillCommUs(256), 0.0);
}

TEST(TpPricing, ShardedChunkedPrefillConverges)
{
    // Degree-g chunked prefill must be cheaper than single-GPU but more
    // than 1/g of it (replicated attention span, uneven splits), and
    // degree 1 of the TP overload must equal the plain estimate.
    const auto &spec = rtx4090();
    const auto &model = llm::llama7b();
    double single =
        llm::estimateChunkedPrefillUs(spec, model, 512, 1024);
    EXPECT_DOUBLE_EQ(llm::estimateChunkedPrefillUs(spec, model, 512,
                                                   1024, nvlink(1)),
                     single);
    for (int degree : {2, 4, 8}) {
        double sharded = llm::estimateChunkedPrefillUs(
            spec, model, 512, 1024, nvlink(degree));
        EXPECT_LT(sharded, single) << "degree " << degree;
        EXPECT_GT(sharded, single / (2.0 * degree)) << "degree " << degree;
    }
}

TEST(TpPricing, CodebookUploadShrinksWithDegree)
{
    compiler::Engine eng(rtx4090());
    IterationPricer single(eng, llm::llama7b(), llm::QuantScheme::VQ2,
                           llm::KvScheme::VQ2, llm::TpConfig{});
    IterationPricer sharded(eng, llm::llama7b(),
                            llm::QuantScheme::VQ2, llm::KvScheme::VQ2,
                            nvlink(4));
    ASSERT_GT(single.codebookMissUs(1), 0.0);
    // Per-device shard uploads overlap: roughly 1/4 the bytes, plus the
    // fixed launch cost.
    EXPECT_LT(sharded.codebookMissUs(1), single.codebookMissUs(1));
    EXPECT_GT(sharded.codebookMissUs(1), single.codebookMissUs(1) / 4.5);
}

// ---------------------------------------------------------------------
// End-to-end simulation

SimulatorConfig
tpConfig(int degree, llm::QuantScheme scheme = llm::QuantScheme::VQ4)
{
    SimulatorConfig cfg;
    cfg.scheme = scheme;
    cfg.tp = nvlink(degree);
    cfg.workload.qps = 6;
    cfg.workload.duration_s = 4;
    return cfg;
}

TEST(TpSimulation, Degree1ReportIdenticalToDefaultConfig)
{
    SimulatorConfig plain;
    plain.workload.qps = 6;
    plain.workload.duration_s = 4;
    auto a = ServingSimulator(plain).run();
    auto b = ServingSimulator(tpConfig(1, plain.scheme)).run();
    expectReportsIdentical(a, b);
    EXPECT_EQ(b.tp_degree, 1u);
    EXPECT_EQ(b.comm_us, 0.0);
    // One device: the aggregate is that device's pool.
    EXPECT_EQ(b.kv_capacity_bytes,
              ServingSimulator(tpConfig(1, plain.scheme))
                  .kvCapacityBytesPerDevice());
}

TEST(TpSimulation, Degree4ShardsDecodeAndPricesCollectives)
{
    auto single = ServingSimulator(tpConfig(1)).run();
    auto tp4 = ServingSimulator(tpConfig(4)).run();

    EXPECT_EQ(tp4.tp_degree, 4u);
    // Sharded decode is faster per token...
    EXPECT_LT(tp4.tbt.p50_us, single.tbt.p50_us);
    // ...but pays for collectives.
    EXPECT_GT(tp4.comm_us, 0.0);
    EXPECT_GT(tp4.comm_fraction, 0.0);
    EXPECT_LT(tp4.comm_fraction, 0.5);
    // Weights shard across devices, so each device's pool exceeds the
    // single-GPU pool and the aggregate grows superlinearly.
    const std::uint64_t per_device =
        ServingSimulator(tpConfig(4)).kvCapacityBytesPerDevice();
    EXPECT_GT(per_device, single.kv_capacity_bytes);
    EXPECT_EQ(tp4.kv_capacity_bytes, 4 * per_device);
    EXPECT_GT(tp4.kv_capacity_bytes, 4 * single.kv_capacity_bytes);
    EXPECT_GT(tp4.plan_cache_misses, 0u);

    // Shards are symmetric, so only shard 0 is priced: one decode step
    // at degree 4 makes as many plan-cache lookups as at degree 1, not
    // one set per shard.
    auto stepLookups = [](int degree) {
        compiler::Engine eng(rtx4090());
        IterationPricer pricer(eng, llm::llama7b(), llm::QuantScheme::VQ4,
                               llm::KvScheme::VQ4, nvlink(degree));
        auto reqs = decodeBatch(8, 512);
        pricer.decodeUs(ptrs(reqs));
        const compiler::CacheStats stats = eng.stats();
        return stats.hits + stats.misses;
    };
    EXPECT_GT(stepLookups(1), 0u);
    EXPECT_EQ(stepLookups(4), stepLookups(1));
}

TEST(TpSimulation, PreemptionUnderShardedPoolsIsDeterministic)
{
    ThreadGuard guard;
    // A tight per-device pool forces preemption/recompute under TP;
    // the event loop must stay bit-deterministic across repeated runs
    // and host thread counts.
    SimulatorConfig cfg = tpConfig(2, llm::QuantScheme::FP16);
    cfg.hbm_gb = 8.5; // ~1.2 GB per-device pool under 7B FP16 shards
    cfg.workload.qps = 10;
    cfg.workload.duration_s = 4;
    cfg.workload.prompt_len_median = 1024;

    par::setThreads(1);
    auto a = ServingSimulator(cfg).run();
    par::setThreads(8);
    auto b = ServingSimulator(cfg).run();
    auto c = ServingSimulator(cfg).run();
    EXPECT_GT(a.preemptions, 0u)
        << "config no longer forces preemptions; tighten hbm_gb";
    expectReportsIdentical(a, b);
    expectReportsIdentical(b, c);
}

TEST(TpSimulation, RunManyTpConfigsMatchesSerialRuns)
{
    ThreadGuard guard;
    std::vector<SimulatorConfig> cfgs;
    for (int degree : {1, 2, 4})
        cfgs.push_back(tpConfig(degree));
    par::setThreads(1);
    std::vector<ServingReport> serial;
    for (const auto &cfg : cfgs)
        serial.push_back(ServingSimulator(cfg).run());
    par::setThreads(8);
    auto fanned = ServingSimulator::runMany(cfgs);
    ASSERT_EQ(fanned.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectReportsIdentical(serial[i], fanned[i]);
}

TEST(TpSimulationDeath, RejectsUnevenHeadSharding)
{
    EXPECT_DEATH(ServingSimulator(tpConfig(3)), "divide");
}

TEST(TpSimulationDeath, RejectsUnevenKvHeadSharding)
{
    // 40 query heads and the MLP width split five ways; 8 KV heads do
    // not, so one device could not hold a fifth of the KV cache.
    llm::LlamaConfig model = llm::llama7b();
    model.heads = 40;
    model.kv_heads = 8;
    model.intermediate = 11000;
    SimulatorConfig cfg = tpConfig(5);
    cfg.model = &model;
    EXPECT_DEATH({ ServingSimulator sim(cfg); },
                 "TP degree 5 does not divide the model's 8 KV heads");
}

} // namespace
} // namespace vqllm::serving