/**
 * @file
 * Tests for bit-packed index streams and integer helpers.
 */
#include <gtest/gtest.h>

#include "common/bitutils.h"
#include "common/rng.h"

namespace vqllm {
namespace {

TEST(BitStream, RoundTripUnaligned12Bit)
{
    // The AQLM-3 format: 12-bit indices packed with no padding.
    BitStream bs(12);
    Rng rng(1);
    std::vector<std::uint32_t> values;
    for (int i = 0; i < 1000; ++i) {
        auto v = static_cast<std::uint32_t>(rng.uniformInt(1u << 12));
        values.push_back(v);
        bs.push(v);
    }
    ASSERT_EQ(bs.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(bs.get(i), values[i]) << i;
    // Dense packing: 1000 * 12 bits = 1500 bytes exactly.
    EXPECT_EQ(bs.sizeBytes(), 1500u);
}

class BitStreamWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BitStreamWidth, RoundTripAllWidths)
{
    unsigned bits = GetParam();
    BitStream bs(bits);
    Rng rng(bits);
    std::vector<std::uint32_t> values;
    std::uint64_t mod = bits >= 32 ? (1ull << 32) : (1ull << bits);
    for (int i = 0; i < 257; ++i) {
        auto v = static_cast<std::uint32_t>(rng.uniformInt(mod));
        values.push_back(v);
        bs.push(v);
    }
    for (std::size_t i = 0; i < values.size(); ++i)
        ASSERT_EQ(bs.get(i), values[i]) << "width " << bits << " idx " << i;
    // Dense packing property: total bits used == count * width.
    EXPECT_EQ(bs.sizeBytes(), (values.size() * bits + 7) / 8);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitStreamWidth,
                         ::testing::Values(1u, 2u, 3u, 4u, 7u, 8u, 11u, 12u,
                                           13u, 16u, 17u, 24u, 31u, 32u));

/** The i-th value of a packed payload, read one bit at a time. */
std::uint32_t
bitByBit(const std::vector<std::uint8_t> &bytes, unsigned bits,
         std::size_t i)
{
    std::uint32_t value = 0;
    for (unsigned b = 0; b < bits; ++b) {
        std::size_t pos = i * bits + b;
        if (bytes[pos / 8] & (1u << (pos % 8)))
            value |= 1u << b;
    }
    return value;
}

TEST(BitStream, WordReadsMatchBitByBitAtEveryWidth)
{
    Rng rng(0xb175);
    for (unsigned bits = 1; bits <= 32; ++bits) {
        // Eight values end exactly on the last byte; 13 do not (unless
        // the width is a multiple of 8).  Both payloads are sized
        // exactly, so a read past the value would leave the heap block.
        for (std::size_t count : {std::size_t{8}, std::size_t{13}}) {
            std::vector<std::uint8_t> bytes((count * bits + 7) / 8);
            for (auto &b : bytes)
                b = static_cast<std::uint8_t>(rng.uniformInt(256));
            std::vector<std::uint8_t> copy = bytes;
            BitStream bs = BitStream::fromBytes(bits, count,
                                                std::move(bytes));
            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(bs.get(i), bitByBit(copy, bits, i))
                    << "width " << bits << " count " << count << " idx "
                    << i;
        }
    }
}

TEST(BitStream, CrossesWordBoundaryMatchesArithmetic)
{
    BitStream bs(12);
    for (int i = 0; i < 64; ++i)
        bs.push(0);
    int crossings = 0;
    for (std::size_t i = 0; i < 64; ++i) {
        bool expect = (i * 12) / 32 != (i * 12 + 11) / 32;
        EXPECT_EQ(bs.crossesWordBoundary(i), expect) << i;
        crossings += bs.crossesWordBoundary(i);
    }
    // 12-bit values cross a 32-bit boundary in 2 of every 8 positions.
    EXPECT_EQ(crossings, 64 * 2 / 8);
    // Aligned widths never cross.
    BitStream aligned(8);
    for (int i = 0; i < 16; ++i)
        aligned.push(0);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_FALSE(aligned.crossesWordBoundary(i));
}

TEST(BitUtils, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(256), 8u);
    EXPECT_EQ(ceilLog2(257), 9u);
    EXPECT_EQ(ceilLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(65536), 16u);
}

TEST(BitUtils, RoundUpAndCeilDiv)
{
    EXPECT_EQ(roundUp(0, 128), 0u);
    EXPECT_EQ(roundUp(1, 128), 128u);
    EXPECT_EQ(roundUp(128, 128), 128u);
    EXPECT_EQ(roundUp(129, 128), 256u);
    EXPECT_EQ(ceilDiv(7, 3), 3u);
    EXPECT_EQ(ceilDiv(6, 3), 2u);
    EXPECT_EQ(ceilDiv(1, 3), 1u);
}

TEST(BitUtils, IsPowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(1023));
}

} // namespace
} // namespace vqllm
