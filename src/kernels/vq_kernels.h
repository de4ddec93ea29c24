/**
 * @file
 * Fused VQ kernels over the simulated GPU.
 *
 * Two modes:
 *  - *Analytic estimation* (`estimateVq*Kernel`): closed-form counters
 *    derived from a KernelPlan at any problem scale; used by the
 *    figure/table benches.  Tier hit fractions come from a real access
 *    histogram when provided.
 *  - *Functional execution* (`runVqGemv`, `runVqAttention`): bit-exact
 *    dequantize-and-compute on host tensors through the instrumented
 *    CodebookCache, with exact warp-level bank-conflict counting; used
 *    by correctness and model-consistency tests.
 */
#pragma once

#include <map>
#include <vector>

#include "engine/kernel_plan.h"
#include "kernels/kernel_result.h"
#include "tensor/tensor.h"
#include "vq/profiler.h"

namespace vqllm::kernels {

/** Calibration constants of the VQ kernel cost formulas. */
struct VqCostParams
{
    /** L1 hit rate of uncached (global-tier) entry fetches (paper:
     *  12.45% profiled for VQ-attn-GC). */
    double gc_l1_hit = 0.1245;
    /** Effective DRAM bytes fetched per missed entry access. */
    double sector_bytes = 24.0;
    /** Monte-Carlo samples for the conflict multiplier. */
    int conflict_samples = 256;
    /** Seed for the conflict estimate. */
    std::uint64_t conflict_seed = 0x5eedu;
};

/**
 * Memo of shared-tier bank-conflict multipliers.
 *
 * gpusim::expectedConflictMultiplier reads only the shared slice's entry
 * weights, the entry width, the sample count, the seed and the spec's
 * warp width and bank count — never the GEMM or attention shape — so a
 * stream of compiles sees a handful of distinct inputs.  The memo keys
 * on every one of those inputs, so a hit returns exactly the value a
 * fresh estimate would.  Not thread-safe: the owner serializes access
 * (compiler::Engine holds its cache lock).
 */
class ConflictMemo
{
  public:
    /** @return gpusim::expectedConflictMultiplier of these inputs,
     *  computed on the first request and recalled afterwards. */
    double multiplier(const gpusim::GpuSpec &spec,
                      std::vector<double> entry_weights,
                      unsigned entry_bytes, int samples,
                      std::uint64_t seed);

    /** @return distinct inputs computed so far. */
    std::size_t size() const { return entries_.size(); }

    void clear() { entries_.clear(); }

  private:
    struct Key
    {
        std::vector<double> weights;
        unsigned entry_bytes;
        int samples;
        std::uint64_t seed;
        int warp_size;
        int smem_banks;

        bool operator<(const Key &o) const;
    };
    std::map<Key, double> entries_;
};

/** Per-tier access shares implied by a cache plan. */
struct TierFractions
{
    double reg = 0;
    double shared = 0;
    double global = 0;
};

/**
 * Compute tier hit fractions for a plan.
 *
 * With a histogram whose size matches the plan's entry count, fractions
 * are exact sums over the frequency-ranked entries; otherwise coverage
 * is assumed uniform.
 */
TierFractions tierHitFractions(const cache::CachePlan &plan,
                               const vq::AccessHistogram *hist);

/**
 * Analytic estimate of a weight-quantized GeMM/GeMV kernel.
 *
 * @param spec target GPU
 * @param plan fully-resolved kernel plan (engine::planWeightKernel)
 * @param hist optional access histogram of one codebook
 * @param memo optional conflict-multiplier memo; results are identical
 *             with or without one
 */
KernelResult estimateVqWeightKernel(const gpusim::GpuSpec &spec,
                                    const engine::KernelPlan &plan,
                                    const vq::AccessHistogram *hist =
                                        nullptr,
                                    const VqCostParams &params =
                                        VqCostParams{},
                                    ConflictMemo *memo = nullptr);

/**
 * Analytic estimate of a KV-cache-quantized decode-attention kernel.
 * Parameters as for estimateVqWeightKernel.
 */
KernelResult estimateVqAttentionKernel(const gpusim::GpuSpec &spec,
                                       const engine::KernelPlan &plan,
                                       const vq::AccessHistogram *hist =
                                           nullptr,
                                       const VqCostParams &params =
                                           VqCostParams{},
                                       ConflictMemo *memo = nullptr);

/** Outcome of a functional kernel execution. */
struct FunctionalResult
{
    /** Computed output tensor. */
    Tensor<float> output;
    /** Exactly-measured event counters. */
    gpusim::KernelCounters counters;
    /** Tier hit statistics across all codebook accesses. */
    cache::AccessStats stats;
};

/**
 * Functionally execute a VQ GeMV: y[n] = W[n,k] x[k] with W quantized.
 *
 * The execution honors the plan's cache boundaries (tier hits and exact
 * warp bank conflicts), fusion level (staging traffic vs shuffles), and
 * codebook switching order.
 *
 * @param plan kernel plan (kind must be GeMV)
 * @param qt   quantized weight, rows = n (output features), cols = k
 * @param x    [k] activation vector
 */
FunctionalResult runVqGemv(const engine::KernelPlan &plan,
                           const vq::QuantizedTensor &qt,
                           const Tensor<float> &x);

/**
 * Functionally execute a VQ GeMM: y[m,n] = x[m,k] W[n,k]^T with W
 * quantized.  Each output-row block re-dequantizes the weight strips it
 * consumes (fused kernels cannot share dequantized tiles across
 * blocks), which the counters reflect.
 *
 * @param plan kernel plan (kind must be GeMM)
 * @param qt   quantized weight, rows = n (output features), cols = k
 * @param x    [m, k] activations
 */
FunctionalResult runVqGemm(const engine::KernelPlan &plan,
                           const vq::QuantizedTensor &qt,
                           const Tensor<float> &x);

/**
 * Functionally execute VQ decode attention for one query token.
 *
 * @param plan kernel plan (kind must be AttentionDecode)
 * @param qt_k quantized K cache, rows = tokens, cols = heads*head_dim
 * @param qt_v quantized V cache, same shape
 * @param q    [heads, head_dim] query
 * @return output [heads, head_dim]
 */
FunctionalResult runVqAttention(const engine::KernelPlan &plan,
                                const vq::QuantizedTensor &qt_k,
                                const vq::QuantizedTensor &qt_v,
                                const Tensor<float> &q);

} // namespace vqllm::kernels
