/**
 * @file
 * K-means clustering — the training core of every VQ algorithm
 * (paper Sec. II-A: "this cross-element information is gathered through
 * clustering ... using cluster centroids to represent nearby vectors").
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace vqllm::vq {

/** Options controlling a k-means run. */
struct KMeansOptions
{
    /** Maximum Lloyd iterations. */
    int max_iters = 25;
    /** Relative inertia improvement below which iteration stops. */
    double tol = 1e-4;
    /** RNG seed (k-means++ initialization and empty-cluster reseeding). */
    std::uint64_t seed = 0x5eedu;
    /**
     * If positive and smaller than the dataset, fit on a deterministic
     * subsample of this many rows (final assignment still covers all
     * rows).  Keeps paper-scale tensors trainable on the host.
     */
    std::size_t sample_limit = 0;
};

/** Result of a k-means run. */
struct KMeansResult
{
    /** [k, dim] cluster centroids. */
    Tensor<float> centroids;
    /** Cluster index per input row. */
    std::vector<std::uint32_t> assignments;
    /** Sum of squared distances of every row to its assigned
     *  (returned) centroid. */
    double inertia = 0;
    /** Lloyd iterations actually executed. */
    int iterations = 0;
};

/**
 * Run k-means with k-means++ initialization.
 *
 * @param data [n, dim] input rows
 * @param k    number of clusters (1 <= k; if k >= n, centroids replicate
 *             data rows)
 * @param opts options (determinism is guaranteed for fixed opts.seed)
 */
KMeansResult kMeans(const Tensor<float> &data, std::size_t k,
                    const KMeansOptions &opts = KMeansOptions{});

/**
 * The centroids kMeans() returns, without its final assignment of every
 * row: for callers that keep only the codebook.
 */
Tensor<float> kMeansCentroids(const Tensor<float> &data, std::size_t k,
                              const KMeansOptions &opts = KMeansOptions{});

/**
 * Assign each row of `data` to the nearest centroid.
 *
 * @return per-row centroid indices
 */
std::vector<std::uint32_t> assignToNearest(const Tensor<float> &data,
                                           const Tensor<float> &centroids);

/** @return squared Euclidean distance between row `a` of A and `b` of B. */
double rowDistanceSq(const Tensor<float> &A, std::size_t a,
                     const Tensor<float> &B, std::size_t b);

} // namespace vqllm::vq
