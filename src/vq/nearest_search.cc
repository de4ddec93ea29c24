#include "vq/nearest_search.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/simd.h"

namespace vqllm::vq {

namespace {

/**
 * Relative slack of every skip test.  A float sum of dim squared
 * differences lies within about (dim + 3) * 2^-24 of its exact value
 * whatever the summation order; 1e-4 covers the SIMD distance and the
 * block filter below together for any dim under ~800, far above every
 * VQ vector size.
 */
constexpr double kMargin = 1e-4;

} // namespace

NearestSearch::NearestSearch(const Tensor<float> &table)
{
    vqllm_assert(table.rank() == 2 && table.dim(0) >= 1 &&
                     table.dim(1) >= 1,
                 "nearest search needs a [rows >= 1, dim >= 1] table");
    const std::size_t n = table.dim(0);
    dim_ = table.dim(1);
    // A square that underflows loses up to 2^-150, in the distance and
    // in the filter alike; four per element covers both.
    slack_ = 4.0 * static_cast<double>(dim_) *
             std::numeric_limits<float>::denorm_min();

    double widest = -1;
    for (std::size_t d = 0; d < dim_; ++d) {
        float lo = table.at(std::size_t(0), d);
        float hi = lo;
        for (std::size_t i = 1; i < n; ++i) {
            lo = std::min(lo, table.at(i, d));
            hi = std::max(hi, table.at(i, d));
        }
        double spread = static_cast<double>(hi) - lo;
        if (spread > widest) {
            widest = spread;
            axis_ = d;
        }
    }

    index_.resize(n);
    std::iota(index_.begin(), index_.end(), 0u);
    std::sort(index_.begin(), index_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  float ka = table.at(std::size_t(a), axis_);
                  float kb = table.at(std::size_t(b), axis_);
                  return ka < kb || (ka == kb && a < b);
              });
    // Pad the last block with NaN rows: a NaN filter value never passes
    // the `<=` test, so padding is never measured.
    const std::size_t blocks = (n + kLanes - 1) / kLanes;
    blocks_.assign(blocks * dim_ * kLanes,
                   std::numeric_limits<float>::quiet_NaN());
    rows_.resize(n * dim_);
    keys_.resize(n);
    position_.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
        const float *src = table.data() + index_[p] * dim_;
        std::copy(src, src + dim_, rows_.data() + p * dim_);
        float *blk = blocks_.data() + p / kLanes * dim_ * kLanes;
        for (std::size_t d = 0; d < dim_; ++d)
            blk[d * kLanes + p % kLanes] = src[d];
        keys_[p] = src[axis_];
        position_[index_[p]] = static_cast<std::uint32_t>(p);
    }
}

NearestSearch::Hit
NearestSearch::nearest(const float *query, std::uint32_t hint) const
{
    const std::size_t n = index_.size();
    vqllm_assert(n > 0, "nearest search over an empty table");

    Hit best{kNoHint, std::numeric_limits<float>::infinity()};
    double bound = std::numeric_limits<double>::infinity();
    float bound_f = std::numeric_limits<float>::infinity();
    // Exact step: the brute-force distance and tie rule for one row.
    auto measure = [&](std::size_t pos) {
        float dist = simd::squaredDistance(query, rows_.data() + pos * dim_,
                                           dim_);
        std::uint32_t idx = index_[pos];
        if (dist < best.dist || (dist == best.dist && idx < best.index)) {
            best = {idx, dist};
            bound = static_cast<double>(dist) * (1 + kMargin) + slack_;
            bound_f = static_cast<float>(bound);
        }
    };
    // Filter step: one lane-parallel distance per block row; only rows
    // that could beat or tie the best are measured exactly, the most
    // promising first so that its bound usually filters out the rest.
    auto scan = [&](std::size_t b) {
        float filter[kLanes];
        simd::squaredDistances8(query, blocks_.data() + b * dim_ * kLanes,
                                dim_, filter);
        std::size_t lead = 0;
        for (std::size_t l = 1; l < kLanes; ++l)
            lead = filter[l] < filter[lead] ? l : lead;
        if (!(filter[lead] <= bound_f))
            return;
        measure(b * kLanes + lead);
        for (std::size_t l = 0; l < kLanes; ++l)
            if (l != lead && filter[l] <= bound_f)
                measure(b * kLanes + l);
    };

    if (hint != kNoHint)
        measure(position_[hint]);

    // The block holding the query's projection, then blocks outward on
    // each side until the projection gap alone fails the bound.  The
    // scan order never changes the result.
    const float q = query[axis_];
    const std::size_t split = static_cast<std::size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), q) - keys_.begin());
    const std::size_t first = std::min(split, n - 1) / kLanes;
    const std::size_t blocks = (n + kLanes - 1) / kLanes;
    scan(first);
    for (std::size_t b = first + 1; b < blocks; ++b) {
        double gap = static_cast<double>(keys_[b * kLanes]) - q;
        if (gap * gap > bound)
            break;
        scan(b);
    }
    for (std::size_t b = first; b-- > 0;) {
        double gap = static_cast<double>(q) - keys_[b * kLanes + kLanes - 1];
        if (gap * gap > bound)
            break;
        scan(b);
    }
    return best;
}

} // namespace vqllm::vq
