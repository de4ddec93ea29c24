#include "vq/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "vq/nearest_search.h"

namespace vqllm::vq {

double
rowDistanceSq(const Tensor<float> &A, std::size_t a, const Tensor<float> &B,
              std::size_t b)
{
    vqllm_assert(A.dim(1) == B.dim(1), "dim mismatch");
    const std::size_t dim = A.dim(1);
    return simd::squaredDistance(A.data() + a * dim, B.data() + b * dim,
                                 dim);
}

namespace {

/** Rows per assignment chunk (static layout — see common/parallel.h). */
constexpr std::size_t kAssignGrain = 256;

/**
 * Assign every row to its nearest centroid: the one assignment loop
 * behind the Lloyd step and the final assignment.
 *
 * @param assign per-row centroid index (size n); with `hinted`, its
 *               entry values are measured first (a previous assignment)
 * @return total inertia, reduced in chunk order (deterministic for any
 *         thread count)
 */
double
assignRows(const Tensor<float> &data, const NearestSearch &search,
           std::vector<std::uint32_t> &assign, bool hinted)
{
    const std::size_t n = data.dim(0);
    const std::size_t dim = data.dim(1);
    return par::parallelSum<double>(
        n, kAssignGrain, [&](const par::ChunkRange &c) {
            double inertia = 0;
            for (std::size_t i = c.begin; i < c.end; ++i) {
                auto hit = search.nearest(data.data() + i * dim,
                                          hinted ? assign[i]
                                                 : NearestSearch::kNoHint);
                assign[i] = hit.index;
                inertia += hit.dist;
            }
            return inertia;
        });
}

/** Pick initial centroids with k-means++ (D^2 weighting). */
Tensor<float>
kMeansPlusPlusInit(const Tensor<float> &data, std::size_t k, Rng &rng)
{
    const std::size_t n = data.dim(0);
    const std::size_t dim = data.dim(1);
    Tensor<float> centroids({k, dim});

    std::size_t first = rng.uniformInt(n);
    for (std::size_t d = 0; d < dim; ++d)
        centroids.at(std::size_t(0), d) = data.at(first, d);

    std::vector<double> dist_sq(n, std::numeric_limits<double>::max());
    for (std::size_t c = 1; c < k; ++c) {
        // Update distances against the last added centroid; rows are
        // independent and the total reduces in chunk order.
        const float *last = centroids.data() + (c - 1) * dim;
        double total = par::parallelSum<double>(
            n, kAssignGrain, [&](const par::ChunkRange &ch) {
                double part = 0;
                for (std::size_t i = ch.begin; i < ch.end; ++i) {
                    // A row already on a centroid stays at 0 (distances
                    // are never negative): skip its distance.
                    if (dist_sq[i] > 0) {
                        double d = simd::squaredDistance(
                            data.data() + i * dim, last, dim);
                        dist_sq[i] = std::min(dist_sq[i], d);
                    }
                    part += dist_sq[i];
                }
                return part;
            });
        std::size_t chosen;
        if (total <= 0) {
            chosen = rng.uniformInt(n); // all points identical
        } else {
            double r = rng.uniform() * total;
            double acc = 0;
            chosen = n - 1;
            for (std::size_t i = 0; i < n; ++i) {
                acc += dist_sq[i];
                if (r < acc) {
                    chosen = i;
                    break;
                }
            }
        }
        for (std::size_t d = 0; d < dim; ++d)
            centroids.at(c, d) = data.at(chosen, d);
    }
    return centroids;
}

/** Deterministically subsample `limit` rows of data. */
Tensor<float>
subsample(const Tensor<float> &data, std::size_t limit, Rng &rng)
{
    const std::size_t n = data.dim(0);
    const std::size_t dim = data.dim(1);
    Tensor<float> out({limit, dim});
    for (std::size_t i = 0; i < limit; ++i) {
        std::size_t src = rng.uniformInt(n);
        for (std::size_t d = 0; d < dim; ++d)
            out.at(i, d) = data.at(src, d);
    }
    return out;
}

/**
 * The Lloyd fit shared by kMeans and kMeansCentroids: k-means++ seeding,
 * then assignment/update steps on the (possibly subsampled) fit rows.
 */
struct LloydFit
{
    /** Centroids after the last update step. */
    Tensor<float> centroids;
    /** The last assignment step's choice per fit row. */
    std::vector<std::uint32_t> fit_assign;
    /** Whether the fit ran on a subsample. */
    bool sampled = false;
    int iterations = 0;
};

LloydFit
lloyd(const Tensor<float> &data, std::size_t k, const KMeansOptions &opts)
{
    vqllm_assert(data.rank() == 2, "k-means expects [n, dim] data");
    vqllm_assert(k >= 1, "k must be positive");
    const std::size_t n = data.dim(0);
    const std::size_t dim = data.dim(1);
    vqllm_assert(n >= 1, "k-means needs at least one row");

    Rng rng(opts.seed);

    // Optionally fit on a subsample for paper-scale tensors.
    LloydFit out;
    out.sampled = opts.sample_limit > 0 && opts.sample_limit < n;
    Tensor<float> fit_storage;
    if (out.sampled)
        fit_storage = subsample(data, opts.sample_limit, rng);
    const Tensor<float> &fit = out.sampled ? fit_storage : data;
    const std::size_t fn = fit.dim(0);

    Tensor<float> &centroids = out.centroids;
    centroids = kMeansPlusPlusInit(fit, k, rng);

    std::vector<std::uint32_t> &fit_assign = out.fit_assign;
    fit_assign.assign(fn, 0);
    double prev_inertia = std::numeric_limits<double>::max();

    for (int iter = 0; iter < opts.max_iters; ++iter) {
        out.iterations = iter + 1;
        // Assignment step (parallel; deterministic chunk-order reduce),
        // measuring each row's previous centroid first.
        double inertia = assignRows(fit, NearestSearch(centroids),
                                    fit_assign, iter > 0);

        // Update step (double accumulation for stability; serial — it
        // is O(n*dim) against the assignment's search).
        std::vector<double> sums(k * dim, 0.0);
        std::vector<std::size_t> counts(k, 0);
        for (std::size_t i = 0; i < fn; ++i) {
            std::uint32_t c = fit_assign[i];
            ++counts[c];
            for (std::size_t d = 0; d < dim; ++d)
                sums[c * dim + d] += fit.at(i, d);
        }
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] == 0) {
                // Reseed an empty cluster at a random data row.
                std::size_t src = rng.uniformInt(fn);
                for (std::size_t d = 0; d < dim; ++d)
                    centroids.at(c, d) = fit.at(src, d);
                continue;
            }
            for (std::size_t d = 0; d < dim; ++d)
                centroids.at(c, d) = static_cast<float>(
                    sums[c * dim + d] / static_cast<double>(counts[c]));
        }

        if (prev_inertia < std::numeric_limits<double>::max()) {
            double rel = (prev_inertia - inertia) /
                         std::max(prev_inertia, 1e-30);
            if (rel >= 0 && rel < opts.tol)
                break;
        }
        prev_inertia = inertia;
    }
    return out;
}

} // namespace

std::vector<std::uint32_t>
assignToNearest(const Tensor<float> &data, const Tensor<float> &centroids)
{
    std::vector<std::uint32_t> assign(data.dim(0), 0);
    assignRows(data, NearestSearch(centroids), assign, false);
    return assign;
}

Tensor<float>
kMeansCentroids(const Tensor<float> &data, std::size_t k,
                const KMeansOptions &opts)
{
    return lloyd(data, k, opts).centroids;
}

KMeansResult
kMeans(const Tensor<float> &data, std::size_t k, const KMeansOptions &opts)
{
    LloydFit fit = lloyd(data, k, opts);
    KMeansResult res;
    res.centroids = std::move(fit.centroids);
    res.iterations = fit.iterations;
    // Final assignment over the full dataset; an unsampled fit starts
    // each row from its last Lloyd choice.  Its sum is the inertia of
    // exactly the returned centroids and assignments.
    if (fit.sampled)
        res.assignments.assign(data.dim(0), 0);
    else
        res.assignments = std::move(fit.fit_assign);
    res.inertia = assignRows(data, NearestSearch(res.centroids),
                             res.assignments, !fit.sampled);
    return res;
}

} // namespace vqllm::vq
