/**
 * @file
 * Tests for the shared-memory bank-conflict model.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "common/rng.h"
#include "gpusim/bank_conflict.h"

namespace vqllm::gpusim {
namespace {

std::vector<std::uint32_t>
sequentialAddrs(int lanes, std::uint32_t stride_bytes)
{
    std::vector<std::uint32_t> addrs(lanes);
    for (int i = 0; i < lanes; ++i)
        addrs[i] = static_cast<std::uint32_t>(i) * stride_bytes;
    return addrs;
}

/**
 * The original per-phase bank -> set-of-words formulation, kept as the
 * reference the flat-count implementation must match exactly.
 */
std::uint64_t
referenceWarpTransactions(const GpuSpec &spec,
                          const std::vector<std::uint32_t> &lane_byte_addrs,
                          unsigned bytes_per_lane)
{
    const unsigned word = 4;
    unsigned phases = (bytes_per_lane + word - 1) / word;
    std::uint64_t total = 0;
    for (unsigned p = 0; p < phases; ++p) {
        std::map<std::uint32_t, std::set<std::uint32_t>> bank_words;
        for (std::uint32_t addr : lane_byte_addrs) {
            std::uint32_t w = addr / word + p;
            bank_words[w % spec.smem_banks].insert(w);
        }
        std::size_t degree = 0;
        for (const auto &[bank, words] : bank_words)
            degree = std::max(degree, words.size());
        total += degree == 0 ? 1 : degree;
    }
    return total;
}

TEST(BankConflict, UnitStrideIsConflictFree)
{
    const GpuSpec &spec = rtx4090();
    auto addrs = sequentialAddrs(32, 4);
    EXPECT_EQ(warpTransactions(spec, addrs, 4), 1u);
}

TEST(BankConflict, BroadcastIsFree)
{
    const GpuSpec &spec = rtx4090();
    std::vector<std::uint32_t> addrs(32, 128); // all lanes same word
    EXPECT_EQ(warpTransactions(spec, addrs, 4), 1u);
}

TEST(BankConflict, Stride2GivesTwoWay)
{
    const GpuSpec &spec = rtx4090();
    auto addrs = sequentialAddrs(32, 8); // stride 2 words -> 2-way
    EXPECT_EQ(warpTransactions(spec, addrs, 4), 2u);
}

TEST(BankConflict, Stride32WordsIsWorstCase)
{
    const GpuSpec &spec = rtx4090();
    auto addrs = sequentialAddrs(32, 128); // all lanes hit bank 0
    EXPECT_EQ(warpTransactions(spec, addrs, 4), 32u);
}

TEST(BankConflict, MultiWordAccessAddsPhases)
{
    const GpuSpec &spec = rtx4090();
    // 8-byte entries, unit entry stride: lanes at 0,8,16,... -> in each
    // 4-byte phase the stride is 2 words -> 2 transactions; 2 phases.
    auto addrs = sequentialAddrs(32, 8);
    EXPECT_EQ(warpTransactions(spec, addrs, 8), 4u);
}

TEST(BankConflict, SameWordDifferentFromSameBank)
{
    const GpuSpec &spec = rtx4090();
    // Two lanes on the same bank but different words: 2-way conflict.
    std::vector<std::uint32_t> conflict = {0, 128};
    EXPECT_EQ(warpTransactions(spec, conflict, 4), 2u);
    // Same word: broadcast, one transaction.
    std::vector<std::uint32_t> broadcast = {0, 0};
    EXPECT_EQ(warpTransactions(spec, broadcast, 4), 1u);
}

TEST(BankConflict, ExpectedMultiplierBounds)
{
    const GpuSpec &spec = rtx4090();
    // Random 4-byte entries across many entries: classic balls-in-bins,
    // expected max load for 32 balls/32 bins is ~3-4.
    double m = expectedConflictMultiplier(spec, 4096, 4);
    EXPECT_GT(m, 2.0);
    EXPECT_LT(m, 5.0);
}

TEST(BankConflict, SingleEntryBroadcasts)
{
    const GpuSpec &spec = rtx4090();
    // One entry resident: every lane reads the same words.
    double m = expectedConflictMultiplier(spec, 1, 8);
    EXPECT_DOUBLE_EQ(m, 1.0);
}

TEST(BankConflict, WiderEntriesConflictMore)
{
    const GpuSpec &spec = rtx4090();
    // An entry spanning multiple banks raises the conflict multiplier
    // (paper Sec. III: "a single codebook entry can occupy multiple
    // banks, exacerbating ... bank conflicts").
    double m8 = expectedConflictMultiplier(spec, 256, 8);   // CQ vec 4
    double m16 = expectedConflictMultiplier(spec, 256, 16); // QuiP# vec 8
    EXPECT_GT(m16, m8 * 0.95);
    // Both are well above conflict-free.
    EXPECT_GT(m8, 1.5);
}

TEST(BankConflict, SkewReducesConflicts)
{
    const GpuSpec &spec = rtx4090();
    // Hot-entry skew increases broadcast hits, lowering the multiplier —
    // this is why register-caching the hottest entries (O2) helps most
    // when the skew is strong.
    std::vector<double> uniform(256, 1.0);
    auto skew = powerLawWeights(256, 2.0);
    double mu = expectedConflictMultiplier(spec, uniform, 8);
    double ms = expectedConflictMultiplier(spec, skew, 8);
    EXPECT_LT(ms, mu);
}

TEST(BankConflict, DeterministicForSeed)
{
    const GpuSpec &spec = rtx4090();
    double a = expectedConflictMultiplier(spec, 256, 8, 256, 99);
    double b = expectedConflictMultiplier(spec, 256, 8, 256, 99);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(BankConflict, FlatCountsMatchReferenceOnRandomWarps)
{
    GpuSpec wide = rtx4090();
    wide.warp_size = 64;
    GpuSpec few_banks = rtx4090();
    few_banks.smem_banks = 16;
    const GpuSpec *specs[] = {&rtx4090(), &wide, &few_banks};
    Rng rng(0xba4c);
    int checked = 0;
    for (const GpuSpec *spec : specs) {
        for (int trial = 0; trial < 400; ++trial) {
            // Full and partial warps (empty included), over a small
            // address range (heavy word sharing) or a wide one.
            std::size_t lanes = trial % 4 == 0
                                    ? spec->warp_size
                                    : rng.uniformInt(spec->warp_size + 1);
            std::uint64_t range = trial % 2 == 0 ? 64 : 1u << 20;
            std::vector<std::uint32_t> addrs(lanes);
            for (auto &a : addrs)
                a = static_cast<std::uint32_t>(rng.uniformInt(range));
            // Broadcasts: copy some lanes' addresses onto others.
            if (trial % 3 == 0)
                for (std::size_t i = 1; i < lanes; i += 2)
                    addrs[i] = addrs[rng.uniformInt(i)];
            for (unsigned bytes = 1; bytes <= 32; ++bytes) {
                ASSERT_EQ(warpTransactions(*spec, addrs, bytes),
                          referenceWarpTransactions(*spec, addrs, bytes))
                    << "warp " << spec->warp_size << " banks "
                    << spec->smem_banks << " lanes " << lanes
                    << " bytes " << bytes << " trial " << trial;
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 3 * 400 * 32);
}

TEST(BankConflict, EmptyWarpCostsOnePerPhase)
{
    EXPECT_EQ(warpTransactions(rtx4090(), {}, 12), 3u);
}

TEST(BankConflictDeathTest, MultiplierRejectsZeroSamples)
{
    EXPECT_DEATH(expectedConflictMultiplier(rtx4090(), 256, 8, 0),
                 "samples must be positive");
}

TEST(BankConflictDeathTest, MultiplierRejectsZeroBanks)
{
    GpuSpec no_banks = rtx4090();
    no_banks.smem_banks = 0;
    EXPECT_DEATH(expectedConflictMultiplier(no_banks, 256, 8),
                 "smem_banks must be positive");
}

} // namespace
} // namespace vqllm::gpusim
