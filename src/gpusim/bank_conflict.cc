#include "gpusim/bank_conflict.h"

#include <algorithm>
#include <array>

#include "common/logging.h"

namespace vqllm::gpusim {

std::uint64_t
warpTransactions(const GpuSpec &spec,
                 const std::vector<std::uint32_t> &lane_byte_addrs,
                 unsigned bytes_per_lane)
{
    vqllm_assert(bytes_per_lane > 0, "bytes_per_lane must be positive");
    vqllm_assert(spec.smem_banks > 0, "smem_banks must be positive");
    vqllm_assert(static_cast<int>(lane_byte_addrs.size()) <= spec.warp_size,
                 "more lanes than warp size");
    vqllm_assert(lane_byte_addrs.size() <= kMaxWarpLanes,
                 "more than ", kMaxWarpLanes, " lanes");
    const unsigned word = 4;
    unsigned phases = (bytes_per_lane + word - 1) / word;

    // Phase p reads word w + p for each lane word w.  The common shift
    // keeps distinct words distinct and rotates every word's bank by p,
    // so each phase has phase 0's degree: the most distinct words
    // addressed in any one bank.  Each lane's word is compared with the
    // distinct words seen so far: a new word is the (same + 1)-th in its
    // bank, and the last word of a bank carries the bank's count.  Slots
    // past the distinct words hold a sentinel that no word (addr / 4) or
    // bank equals, so the comparison runs in whole groups of 8.
    constexpr std::uint32_t kNone = 0xffffffffu;
    std::array<std::uint32_t, kMaxWarpLanes> words, banks_of;
    words.fill(kNone);
    banks_of.fill(kNone);
    std::size_t distinct = 0;
    const auto banks = static_cast<std::uint32_t>(spec.smem_banks);
    std::uint32_t degree = 1; // an empty warp still issues one per phase
    for (std::uint32_t addr : lane_byte_addrs) {
        std::uint32_t w = addr / word;
        std::uint32_t bank = w % banks;
        std::uint32_t seen = 0;
        std::uint32_t same = 1;
        const std::size_t groups = (distinct + 7) / 8 * 8;
        for (std::size_t j = 0; j < groups; ++j) {
            seen |= words[j] == w;
            same += banks_of[j] == bank;
        }
        if (seen)
            continue;
        words[distinct] = w;
        banks_of[distinct] = bank;
        ++distinct;
        degree = std::max(degree, same);
    }
    return std::uint64_t{phases} * degree;
}

double
expectedConflictMultiplier(const GpuSpec &spec,
                           const std::vector<double> &entry_weights,
                           unsigned entry_bytes, int samples,
                           std::uint64_t seed)
{
    vqllm_assert(!entry_weights.empty(), "no entries");
    vqllm_assert(entry_bytes > 0, "entry_bytes must be positive");
    vqllm_assert(samples > 0, "samples must be positive");
    vqllm_assert(spec.smem_banks > 0, "smem_banks must be positive");
    Rng rng(seed);

    // Precompute the popularity CDF once.
    std::vector<double> cdf(entry_weights.size());
    double acc = 0;
    for (std::size_t i = 0; i < entry_weights.size(); ++i) {
        acc += entry_weights[i];
        cdf[i] = acc;
    }
    vqllm_assert(acc > 0, "weights sum to zero");

    auto draw = [&]() -> std::uint32_t {
        double r = rng.uniform() * acc;
        auto it = std::lower_bound(cdf.begin(), cdf.end(), r);
        return static_cast<std::uint32_t>(it - cdf.begin());
    };

    unsigned phases = (entry_bytes + 3) / 4;
    std::uint64_t total_trans = 0;
    std::vector<std::uint32_t> addrs(spec.warp_size);
    for (int s = 0; s < samples; ++s) {
        for (int lane = 0; lane < spec.warp_size; ++lane)
            addrs[lane] = draw() * entry_bytes;
        total_trans += warpTransactions(spec, addrs, entry_bytes);
    }
    double avg = static_cast<double>(total_trans) / samples;
    return avg / phases;
}

double
expectedConflictMultiplier(const GpuSpec &spec, std::size_t num_entries,
                           unsigned entry_bytes, int samples,
                           std::uint64_t seed)
{
    return expectedConflictMultiplier(
        spec, std::vector<double>(num_entries, 1.0), entry_bytes, samples,
        seed);
}

} // namespace vqllm::gpusim
