/**
 * @file
 * Checked CLI number parsing: whole tokens only, finite values only,
 * no sign on unsigned values, and range checks — with one-line reasons
 * on rejection and exit status 2 from the flag helpers.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/cli.h"

namespace vqllm::cli {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

TEST(CliParse, DoubleAcceptsWholeFiniteTokensInRange)
{
    double v = 0;
    std::string error;
    EXPECT_TRUE(parseDouble("5", kPositive, &v, &error));
    EXPECT_EQ(v, 5.0);
    EXPECT_TRUE(parseDouble("0.25", kPositive, &v, &error));
    EXPECT_EQ(v, 0.25);
    EXPECT_TRUE(parseDouble("1e3", kPositive, &v, &error));
    EXPECT_EQ(v, 1000.0);
    EXPECT_TRUE(parseDouble("-2.5", Range{}, &v, &error));
    EXPECT_EQ(v, -2.5);
    EXPECT_TRUE(parseDouble("0", kNonNegative, &v, &error));
    EXPECT_EQ(v, 0.0);
    EXPECT_TRUE(error.empty());
}

TEST(CliParse, DoubleRejectsGarbagePrefixesAndNonFinite)
{
    for (const char *bad : {"", "abc", "5x", "5 ", " 5", "0x10", "nan",
                            "inf", "-inf", "1e999", "--5"}) {
        double v = 42;
        std::string error;
        EXPECT_FALSE(parseDouble(bad, Range{}, &v, &error)) << bad;
        EXPECT_EQ(v, 42.0) << "output touched on reject: " << bad;
        EXPECT_NE(error.find(std::string("got '") + bad + "'"),
                  std::string::npos)
            << error;
    }
}

TEST(CliParse, DoubleRangeBoundsOpenAndClosed)
{
    double v = 0;
    std::string error;
    EXPECT_FALSE(parseDouble("0", kPositive, &v, &error));
    EXPECT_EQ(error, "expects a number in (0, inf), got '0'");
    EXPECT_FALSE(parseDouble("-5", kPositive, &v, &error));
    EXPECT_FALSE(parseDouble("-0.5", kNonNegative, &v, &error));
    EXPECT_EQ(error, "expects a number in [0, inf), got '-0.5'");

    const Range unit{0, 1, false, true};
    EXPECT_TRUE(parseDouble("0", unit, &v, &error));
    EXPECT_TRUE(parseDouble("0.999", unit, &v, &error));
    EXPECT_FALSE(parseDouble("1", unit, &v, &error));
    EXPECT_EQ(error, "expects a number in [0, 1), got '1'");
}

TEST(CliParse, UnsignedAcceptsWholeDecimalTokensInRange)
{
    std::uint64_t v = 0;
    std::string error;
    EXPECT_TRUE(parseUnsigned("0", 0, kMax, &v, &error));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUnsigned("64", 1, kMax, &v, &error));
    EXPECT_EQ(v, 64u);
    EXPECT_TRUE(parseUnsigned("18446744073709551615", 0, kMax, &v, &error));
    EXPECT_EQ(v, kMax);
}

TEST(CliParse, UnsignedRejectsSignsGarbageOverflowAndRange)
{
    for (const char *bad : {"", "-1", "+1", "x", "5x", "1.5", "1e3", " 1",
                            "0x10", "18446744073709551616"}) {
        std::uint64_t v = 7;
        std::string error;
        EXPECT_FALSE(parseUnsigned(bad, 0, kMax, &v, &error)) << bad;
        EXPECT_EQ(v, 7u) << bad;
        EXPECT_NE(error.find("expects an integer"), std::string::npos);
    }
    std::uint64_t v = 0;
    std::string error;
    EXPECT_FALSE(parseUnsigned("0", 1, kMax, &v, &error));
    EXPECT_EQ(error, "expects an integer in [1, 18446744073709551615], "
                     "got '0'");
    EXPECT_FALSE(parseUnsigned("9", 1, 8, &v, &error));
}

TEST(CliParseDeathTest, FlagHelpersExitTwoWithOneUsageLine)
{
    EXPECT_EXIT(doubleFlag("sim", "--qps", "abc", kPositive),
                testing::ExitedWithCode(2),
                "^sim: --qps expects a number in \\(0, inf\\), got 'abc' "
                "\\(see --help\\)");
    EXPECT_EXIT(unsignedFlag("sim", "--max-batch", "-1", 1),
                testing::ExitedWithCode(2),
                "^sim: --max-batch expects an integer in \\[1, [0-9]+\\], "
                "got '-1' \\(see --help\\)");
    EXPECT_EQ(doubleFlag("sim", "--qps", "5", kPositive), 5.0);
    EXPECT_EQ(unsignedFlag("sim", "--max-batch", "3", 1), 3u);
}

} // namespace
} // namespace vqllm::cli
