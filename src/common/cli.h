/**
 * @file
 * Checked parsing of numeric command-line flag values.
 *
 * std::stod / std::stoul accept a numeric prefix ("5x" reads as 5),
 * wrap a leading minus on unsigned targets ("-1" becomes 2^64-1) and
 * throw on garbage.  These parsers take the whole token or nothing,
 * require a finite value, reject any sign on unsigned values and check
 * a range, so every bad flag value ends in one usage line and exit 2.
 */
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace vqllm::cli {

/** Accepted interval of a floating-point flag value. */
struct Range
{
    double min = -std::numeric_limits<double>::infinity();
    double max = std::numeric_limits<double>::infinity();
    /** Exclude the bound itself (e.g. "> 0" is {0, inf, true}). */
    bool min_open = false;
    bool max_open = false;
};

/** (0, inf): rates, bandwidths, periods, capacities. */
inline constexpr Range kPositive{0, std::numeric_limits<double>::infinity(),
                                 true};
/** [0, inf): durations and latencies. */
inline constexpr Range kNonNegative{0};

/**
 * Parse the whole token as a finite decimal number inside `range`.
 *
 * @return true and sets *out on success; false and sets *error to a
 *         one-line reason ("expects a number in (0, inf), got 'abc'").
 */
bool parseDouble(std::string_view token, const Range &range, double *out,
                 std::string *error);

/**
 * Parse the whole token as an unsigned decimal integer in [min, max]
 * (no sign, no whitespace, no base prefix).
 *
 * @return true and sets *out on success; false and sets *error.
 */
bool parseUnsigned(std::string_view token, std::uint64_t min,
                   std::uint64_t max, std::uint64_t *out,
                   std::string *error);

/** Print "<prog>: <message> (see --help)" to stderr and exit 2. */
[[noreturn]] void usageError(const char *prog, const std::string &message);

/** parseDouble or usageError naming `flag`. */
double doubleFlag(const char *prog, const std::string &flag,
                  std::string_view token, const Range &range = Range{});

/** parseUnsigned or usageError naming `flag`. */
std::uint64_t unsignedFlag(
    const char *prog, const std::string &flag, std::string_view token,
    std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

} // namespace vqllm::cli
