/**
 * @file
 * Randomized equivalence tests for the exact nearest-row search: it must
 * select exactly what a brute-force strict-`<` scan over
 * simd::squaredDistance selects — the same index (lowest on ties) and
 * the same float distance, bit for bit.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "common/simd.h"
#include "tensor/datagen.h"
#include "vq/codebook.h"
#include "vq/kmeans.h"
#include "vq/nearest_search.h"
#include "vq/vq_config.h"

namespace vqllm::vq {
namespace {

/** The reference: scan every row, keep the first strict minimum. */
NearestSearch::Hit
bruteForce(const Tensor<float> &table, const float *query)
{
    const std::size_t dim = table.dim(1);
    NearestSearch::Hit best{0, std::numeric_limits<float>::infinity()};
    for (std::size_t r = 0; r < table.dim(0); ++r) {
        float d = simd::squaredDistance(query, table.data() + r * dim, dim);
        if (d < best.dist)
            best = {static_cast<std::uint32_t>(r), d};
    }
    return best;
}

/** Check every query row (with and without a hint) against the
 *  reference; @return the number of checked queries. */
std::size_t
expectMatches(const Tensor<float> &table, const Tensor<float> &queries,
              Rng &rng, const std::string &what)
{
    NearestSearch search(table);
    const std::size_t dim = table.dim(1);
    for (std::size_t i = 0; i < queries.dim(0); ++i) {
        const float *q = queries.data() + i * dim;
        NearestSearch::Hit want = bruteForce(table, q);
        auto hint = static_cast<std::uint32_t>(rng.uniformInt(table.dim(0)));
        for (NearestSearch::Hit got :
             {search.nearest(q), search.nearest(q, hint)}) {
            EXPECT_EQ(got.index, want.index) << what << " query " << i;
            EXPECT_EQ(std::bit_cast<std::uint32_t>(got.dist),
                      std::bit_cast<std::uint32_t>(want.dist))
                << what << " query " << i << ": " << got.dist << " vs "
                << want.dist;
            if (::testing::Test::HasFailure())
                return i;
        }
    }
    return queries.dim(0);
}

Tensor<float>
normalRows(std::size_t rows, std::size_t dim, double scale, Rng &rng)
{
    Tensor<float> t({rows, dim});
    fillNormal(t, rng, 0.0, scale);
    return t;
}

TEST(NearestSearch, MatchesBruteForceAtEveryDim)
{
    Rng rng(11);
    for (std::size_t dim = 1; dim <= 8; ++dim)
        for (std::size_t k : {1, 3, 8, 9, 64, 257}) {
            auto table = normalRows(k, dim, 1.0, rng);
            auto queries = normalRows(200, dim, 1.2, rng);
            expectMatches(table, queries, rng,
                          "dim " + std::to_string(dim) + " k " +
                              std::to_string(k));
        }
}

TEST(NearestSearch, MatchesBruteForceForEveryPreset)
{
    Rng rng(12);
    for (const VQConfig &cfg : paperConfigs()) {
        const std::size_t dim = cfg.vector_size;
        const std::size_t k =
            cfg.lattice ? cfg.lattice_base_entries : cfg.num_entries;
        ClusteredDataSpec spec;
        spec.duplicate_pool = 16;
        spec.duplicate_fraction = 0.1;
        auto table = generateClustered(k, dim, spec, rng);
        auto queries = generateClustered(400, dim, spec, rng);
        expectMatches(table, queries, rng, cfg.name);

        // Plain books encode through the search: same index.
        if (cfg.lattice)
            continue;
        Codebook cb = Codebook::plain(table);
        for (std::size_t i = 0; i < queries.dim(0); ++i) {
            const float *q = queries.data() + i * dim;
            ASSERT_EQ(cb.encode(q), bruteForce(cb.entries(), q).index)
                << cfg.name << " query " << i;
        }
    }
}

TEST(NearestSearch, DuplicatesTiesAndMoreRowsThanData)
{
    Rng rng(13);
    for (std::size_t dim : {1, 2, 4, 8}) {
        // Small integer grids: duplicate rows and exact distance ties
        // (half-integer queries sit exactly between grid rows).
        Tensor<float> table({300, dim});
        for (std::size_t i = 0; i < table.size(); ++i)
            table[i] = static_cast<float>(rng.uniformInt(5)) - 2.0f;
        Tensor<float> queries({300, dim});
        for (std::size_t i = 0; i < queries.size(); ++i)
            queries[i] = 0.5f * static_cast<float>(rng.uniformInt(9)) -
                         2.0f;
        expectMatches(table, queries, rng,
                      "grid dim " + std::to_string(dim));

        // k > n: the centroids replicate a few data rows many times.
        auto data = normalRows(20, dim, 1.0, rng);
        auto centroids = kMeansCentroids(data, 100);
        expectMatches(centroids, data, rng,
                      "k>n dim " + std::to_string(dim));
    }
}

TEST(NearestSearch, ExtremeMagnitudes)
{
    Rng rng(14);
    // 1e-30 squares underflow to 0 and 1e-22 squares are subnormal;
    // 1e19 squares overflow to inf in the sum.  None is NaN.
    for (double scale : {1e-30, 1e-22, 1e-18, 1e15, 1e18, 1e19})
        for (std::size_t dim : {1, 3, 8}) {
            auto table = normalRows(100, dim, scale, rng);
            auto queries = normalRows(100, dim, scale, rng);
            expectMatches(table, queries, rng,
                          "scale " + std::to_string(scale) + " dim " +
                              std::to_string(dim));
        }
}

TEST(NearestSearch, MarginCoversDistanceRoundingBelowProjectionGap)
{
    // Row 0 sits at -2^-30: its float distance to the query 1 rounds to
    // exactly 1 (1 + 2^-30 is not a float), below its double projection
    // gap^2 = (1 + 2^-30)^2, and ties row 1 at 2.  Seven far rows below
    // put row 0 in another block than row 1, which is scanned first, so
    // only the margin keeps row 0's block from being skipped — and the
    // lowest-index tie rule must then pick row 0.
    Tensor<float> table({10, 1});
    table[0] = -std::ldexp(1.0f, -30);
    table[1] = 2.0f;
    for (std::size_t i = 2; i < 9; ++i)
        table[i] = -10.0f - static_cast<float>(i);
    table[9] = 5.0f;
    const float query = 1.0f;
    double gap = static_cast<double>(query) - table[0];
    ASSERT_LT(static_cast<double>(simd::squaredDistance(&query, &table[0],
                                                        1)),
              gap * gap);
    NearestSearch search(table);
    EXPECT_EQ(bruteForce(table, &query).index, 0u);
    EXPECT_EQ(search.nearest(&query).index, 0u);
    EXPECT_EQ(search.nearest(&query, 1).index, 0u);
}

TEST(NearestSearchDeath, RejectsEmptyTable)
{
    Tensor<float> empty({0, 4});
    EXPECT_DEATH(NearestSearch{empty}, "rows >= 1");
}

} // namespace
} // namespace vqllm::vq
