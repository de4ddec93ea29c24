/**
 * @file
 * Exact nearest-row search over a small float table: the one
 * nearest-codeword loop behind k-means assignment and plain-codebook
 * encoding (paper Sec. II-A: each sub-vector is represented by its
 * nearest centroid).
 *
 * The table is sorted once on its widest coordinate and also stored in
 * blocks of 8 coordinate-major rows.  A query filters the block holding
 * its own projection, then blocks outward on each side, and stops once
 * the projection gap alone proves every remaining row farther than the
 * best one found.  Inside a block a lane-parallel distance decides which
 * rows are measured exactly.  GPTVQ-class codebooks (2-8 dimensions,
 * 256-4096 entries) let these bounds skip most of the table.
 *
 * Contract: the result is exactly what a brute-force scan with a strict
 * `<` over `simd::squaredDistance` selects — the same float distance,
 * and the lowest index among rows at that distance.  A row is skipped
 * only when its projection gap^2 (in double) or its filter value exceeds
 * `best * (1 + 1e-4) + 4 * dim * denorm_min`: room for the float
 * rounding of either sum (relative error about dim * 2^-24) and for
 * squares that underflow, so a skipped row is always strictly farther
 * in float and can neither win nor tie.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/simd.h"
#include "tensor/tensor.h"

namespace vqllm::vq {

/** Exact nearest-row search over a [rows, dim] float table. */
class NearestSearch
{
  public:
    /** Result of one query. */
    struct Hit
    {
        /** Row index in the table the search was built on. */
        std::uint32_t index = 0;
        /** simd::squaredDistance between the query and that row. */
        float dist = 0;
    };

    NearestSearch() = default;

    /**
     * Index a table (copied; later changes to it are not seen).
     *
     * @param table [rows >= 1, dim >= 1] finite values
     */
    explicit NearestSearch(const Tensor<float> &table);

    /**
     * @param query dim() finite values
     * @param hint  a row to measure first (tightens the bound early;
     *              never changes the result), or kNoHint
     */
    Hit nearest(const float *query, std::uint32_t hint = kNoHint) const;

    static constexpr std::uint32_t kNoHint = 0xffffffffu;

  private:
    /** Rows per filter block. */
    static constexpr std::size_t kLanes = simd::kRowLanes;

    std::size_t dim_ = 0;
    /** Coordinate the table is sorted on (largest spread). */
    std::size_t axis_ = 0;
    /** Absolute slack of every skip test (underflowing squares). */
    double slack_ = 0;
    /** Table rows in sorted order, [rows * dim]. */
    std::vector<float> rows_;
    /** The same rows in blocks of kLanes, coordinate-major within a
     *  block: [blocks][dim][kLanes], NaN-padded. */
    std::vector<float> blocks_;
    /** rows_[i * dim + axis_], ascending. */
    std::vector<float> keys_;
    /** Sorted position -> original row index. */
    std::vector<std::uint32_t> index_;
    /** Original row index -> sorted position (for hints). */
    std::vector<std::uint32_t> position_;
};

} // namespace vqllm::vq
