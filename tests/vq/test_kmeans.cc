/**
 * @file
 * Tests for k-means clustering: correctness on separable data, invariants
 * (determinism, monotone inertia), and edge cases.
 */
#include <gtest/gtest.h>

#include <set>

#include "tensor/datagen.h"
#include "vq/kmeans.h"

namespace vqllm::vq {
namespace {

/** Build n points around k well-separated centers. */
Tensor<float>
separableData(std::size_t n, std::size_t k, std::size_t dim, Rng &rng)
{
    Tensor<float> centers({k, dim});
    for (std::size_t c = 0; c < k; ++c)
        for (std::size_t d = 0; d < dim; ++d)
            centers.at(c, d) = static_cast<float>(10.0 * c + d);
    Tensor<float> data({n, dim});
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t c = i % k;
        for (std::size_t d = 0; d < dim; ++d)
            data.at(i, d) = centers.at(c, d) +
                            static_cast<float>(rng.normal(0.0, 0.05));
    }
    return data;
}

TEST(KMeans, RecoversSeparatedClusters)
{
    Rng rng(1);
    auto data = separableData(300, 3, 4, rng);
    auto res = kMeans(data, 3);
    // Every point sits within noise distance of its centroid.
    for (std::size_t i = 0; i < data.dim(0); ++i) {
        double d = rowDistanceSq(data, i, res.centroids,
                                 res.assignments[i]);
        EXPECT_LT(d, 0.5) << "point " << i;
    }
    // All three clusters are used.
    std::set<std::uint32_t> used(res.assignments.begin(),
                                 res.assignments.end());
    EXPECT_EQ(used.size(), 3u);
}

TEST(KMeans, DeterministicForSeed)
{
    Rng rng(2);
    auto data = generateClustered(200, 4, ClusteredDataSpec{}, rng);
    auto a = kMeans(data, 16);
    auto b = kMeans(data, 16);
    EXPECT_EQ(a.assignments, b.assignments);
    EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
    EXPECT_EQ(maxAbsDiff(a.centroids, b.centroids), 0.0);
}

TEST(KMeans, MoreClustersLowerInertia)
{
    Rng rng(3);
    auto data = generateClustered(400, 4, ClusteredDataSpec{}, rng);
    double prev = 1e30;
    for (std::size_t k : {2, 8, 32, 128}) {
        auto res = kMeans(data, k);
        EXPECT_LE(res.inertia, prev * 1.001) << "k=" << k;
        prev = res.inertia;
    }
}

TEST(KMeans, SingleClusterIsMean)
{
    Rng rng(4);
    Tensor<float> data({50, 3});
    fillNormal(data, rng);
    auto res = kMeans(data, 1);
    for (std::size_t d = 0; d < 3; ++d) {
        double mean = 0;
        for (std::size_t i = 0; i < 50; ++i)
            mean += data.at(i, d);
        mean /= 50;
        EXPECT_NEAR(res.centroids.at(std::size_t(0), d), mean, 1e-4);
    }
}

TEST(KMeans, KLargerThanNStillValid)
{
    Rng rng(5);
    Tensor<float> data({4, 2});
    fillNormal(data, rng);
    auto res = kMeans(data, 16);
    ASSERT_EQ(res.centroids.dim(0), 16u);
    // Every point should map to (near) itself: inertia ~ 0.
    EXPECT_LT(res.inertia, 1e-6);
}

TEST(KMeans, AssignmentsMatchNearestCentroid)
{
    Rng rng(6);
    auto data = generateClustered(200, 4, ClusteredDataSpec{}, rng);
    auto res = kMeans(data, 8);
    auto manual = assignToNearest(data, res.centroids);
    EXPECT_EQ(res.assignments, manual);
}

TEST(KMeans, InertiaMatchesReturnedAssignment)
{
    // The inertia describes the returned centroids and assignments (not
    // the last Lloyd step before its centroid update), sampled or not.
    Rng rng(3);
    auto data = generateClustered(3000, 4, ClusteredDataSpec{}, rng);
    for (std::size_t sample_limit : {std::size_t{0}, std::size_t{500}}) {
        KMeansOptions opts;
        opts.sample_limit = sample_limit;
        auto res = kMeans(data, 32, opts);
        EXPECT_EQ(res.assignments, assignToNearest(data, res.centroids))
            << "sample_limit " << sample_limit;
        double actual = 0;
        for (std::size_t i = 0; i < data.dim(0); ++i)
            actual += rowDistanceSq(data, i, res.centroids,
                                    res.assignments[i]);
        // Only the summation order may differ.
        EXPECT_NEAR(res.inertia, actual, 1e-9 * actual)
            << "sample_limit " << sample_limit;
        EXPECT_EQ(maxAbsDiff(res.centroids,
                             kMeansCentroids(data, 32, opts)),
                  0.0);
    }
}

TEST(KMeans, SampledTrainingStillClusters)
{
    Rng rng(7);
    auto data = separableData(2000, 4, 4, rng);
    KMeansOptions opts;
    opts.sample_limit = 256;
    auto res = kMeans(data, 4, opts);
    // Sampled training on separable data still recovers the clusters.
    for (std::size_t i = 0; i < data.dim(0); ++i) {
        double d = rowDistanceSq(data, i, res.centroids,
                                 res.assignments[i]);
        EXPECT_LT(d, 0.5);
    }
}

TEST(KMeans, IdenticalPointsDoNotCrash)
{
    Tensor<float> data({32, 4});
    data.fill(1.5f);
    auto res = kMeans(data, 4);
    EXPECT_LT(res.inertia, 1e-9);
    for (std::size_t d = 0; d < 4; ++d)
        EXPECT_NEAR(res.centroids.at(res.assignments[0], d), 1.5f, 1e-6);
}

TEST(KMeansDeath, RejectsBadInput)
{
    Tensor<float> one_d({8});
    EXPECT_DEATH(kMeans(one_d, 2), "\\[n, dim\\]");
    Tensor<float> ok({8, 2});
    EXPECT_DEATH(kMeans(ok, 0), "positive");
}

} // namespace
} // namespace vqllm::vq
