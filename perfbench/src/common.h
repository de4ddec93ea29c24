/**
 * @file
 * Shared pieces of the repository benchmark: the host clock, order
 * statistics, the metric catalog, the result every workload fills in,
 * and the workload entry points main() dispatches to.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** @return seconds elapsed since @p t0 on the host clock. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Quantile by linear interpolation between closest ranks (sorts a
 *  copy; an empty input gives 0). */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double mean(const std::vector<double> &v);

/** Geometric mean of positive values (empty input gives 0). */
double geomean(const std::vector<double> &v);

/** 64-bit mix of a run seed and a stream index (splitmix64), so each
 *  generated input gets its own reproducible seed. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream);

/** One named value with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Name and unit of a catalogued metric. */
struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** End-to-end metrics, printed by every untraced run. */
const std::vector<MetricSpec> &endToEndSpecs();

/** Per-layer metrics, printed by every traced run.  A layer a workload
 *  does not exercise reads 0. */
const std::vector<MetricSpec> &perLayerSpecs();

/** Span names with a `self.<name>_ms` per-layer metric. */
const std::vector<std::string> &selfTimeSpanNames();

/** Command-line parameters of one benchmark run. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 0;
    /** Minimum length of the measured phase, host seconds. */
    double seconds = 10;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string spans_out;
};

/**
 * Outcome of one run.  `attempted`/`failed` count what the run tried:
 * requests sent (serving) or reference checks (kernel_suite), plus one
 * per correctness gate.  A failed gate also leaves a line in
 * `failures` and makes the run incorrect; a rejected request only
 * counts as failed.
 */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    /** Metric values by catalog name. */
    std::map<std::string, double> values;
    /** Human-readable report lines printed before the result. */
    std::vector<std::string> notes;

    /** Count one correctness gate; record @p what when it fails. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            failures.push_back(what);
        }
    }

    bool correct() const { return failures.empty(); }
};

/** Set-up repeats per run; setup_s is their median. */
inline constexpr int kSetupRepeats = 9;

RunResult runServeVq4(const RunArgs &args);
RunResult runFleetPrefixInt4(const RunArgs &args);
RunResult runKernelSuite(const RunArgs &args);

/** @return peak resident set size of this process so far, MB. */
double peakRssMb();

/** Times the passes of the measured phase on the host clock; wall_s
 *  is their median. */
class PassClock
{
  public:
    template <class Fn>
    auto
    time(Fn &&fn)
    {
        auto t0 = Clock::now();
        auto out = fn();
        pass_s_.push_back(secondsSince(t0));
        return out;
    }

    const std::vector<double> &passes() const { return pass_s_; }

    /** Set wall_s and note the pass count and quartiles. */
    void report(RunResult &r) const;

  private:
    std::vector<double> pass_s_;
};

} // namespace perfbench
