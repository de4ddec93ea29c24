#include "common/cli.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vqllm::cli {

namespace {

std::string
boundText(double v)
{
    if (std::isinf(v))
        return v < 0 ? "-inf" : "inf";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

std::string
quoted(std::string_view token)
{
    std::string q = "'";
    q += token;
    q += '\'';
    return q;
}

} // namespace

bool
parseDouble(std::string_view token, const Range &range, double *out,
            std::string *error)
{
    double v = 0;
    bool ok = !token.empty();
    if (ok) {
        const char *end = token.data() + token.size();
        auto [ptr, ec] = std::from_chars(token.data(), end, v);
        ok = ec == std::errc{} && ptr == end && std::isfinite(v);
    }
    ok = ok && (range.min_open ? v > range.min : v >= range.min) &&
         (range.max_open ? v < range.max : v <= range.max);
    if (!ok) {
        // Infinite bounds are never attained: print them open.
        bool lo_open = range.min_open || std::isinf(range.min);
        bool hi_open = range.max_open || std::isinf(range.max);
        *error = std::string("expects a number in ") +
                 (lo_open ? "(" : "[") + boundText(range.min) + ", " +
                 boundText(range.max) + (hi_open ? ")" : "]") + ", got " +
                 quoted(token);
        return false;
    }
    *out = v;
    return true;
}

bool
parseUnsigned(std::string_view token, std::uint64_t min, std::uint64_t max,
              std::uint64_t *out, std::string *error)
{
    std::uint64_t v = 0;
    bool ok = !token.empty();
    if (ok) {
        // from_chars takes no sign for unsigned targets, so "-1" and
        // "+1" fail here instead of wrapping.
        const char *end = token.data() + token.size();
        auto [ptr, ec] = std::from_chars(token.data(), end, v);
        ok = ec == std::errc{} && ptr == end && v >= min && v <= max;
    }
    if (!ok) {
        *error = "expects an integer in [" + std::to_string(min) + ", " +
                 std::to_string(max) + "], got " + quoted(token);
        return false;
    }
    *out = v;
    return true;
}

void
usageError(const char *prog, const std::string &message)
{
    std::fprintf(stderr, "%s: %s (see --help)\n", prog, message.c_str());
    std::exit(2);
}

double
doubleFlag(const char *prog, const std::string &flag,
           std::string_view token, const Range &range)
{
    double v = 0;
    std::string error;
    if (!parseDouble(token, range, &v, &error))
        usageError(prog, flag + " " + error);
    return v;
}

std::uint64_t
unsignedFlag(const char *prog, const std::string &flag,
             std::string_view token, std::uint64_t min, std::uint64_t max)
{
    std::uint64_t v = 0;
    std::string error;
    if (!parseUnsigned(token, min, max, &v, &error))
        usageError(prog, flag + " " + error);
    return v;
}

} // namespace vqllm::cli
