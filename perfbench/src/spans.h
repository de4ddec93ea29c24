/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The benchmark opens a span around each public call it makes into a
 * layer.  A span carries its name, host start/end, the span that was
 * open when it began (its parent) and the id of the run it belongs to,
 * plus the compile engine's hit/miss delta over its interval when an
 * engine is attached.  Spans stay in memory and are written out once,
 * at the end; selfTimesUs() reduces them to per-name self times.
 */
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common.h"

namespace vqllm::compiler {
class Engine;
}

namespace perfbench {

struct Span
{
    const char *name = "";
    double start_us = 0;
    double end_us = 0;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
    std::uint64_t run_id = 0;
    /** Engine lookups/misses during the span (0 without an engine). */
    std::uint64_t lookups = 0;
    std::uint64_t misses = 0;
};

class SpanRecorder
{
  public:
    SpanRecorder();

    /** Start a new run id; later spans carry it. */
    void newRun() { ++run_id_; }

    /** Engine whose stats() delta each span records (nullptr = none).
     *  Only change it while no span is open. */
    void setEngine(const vqllm::compiler::Engine *engine)
    {
        engine_ = engine;
    }

    /** Open a span under the innermost open one; @return its index. */
    int begin(const char *name);

    /** Close the innermost open span, which must be @p idx; @return it
     *  so the caller may rename it from its engine delta. */
    Span &end(int idx);

    const std::vector<Span> &spans() const { return spans_; }
    std::uint64_t runs() const { return run_id_; }

    /** Self time per span name, summed over all spans: duration minus
     *  the time covered by direct children. */
    std::map<std::string, double> selfTimesUs() const;

    /** Write every span as one JSON document. */
    void write(std::ostream &os) const;

  private:
    double nowUs() const;
    void engineCounts(std::uint64_t *lookups, std::uint64_t *misses) const;

    Clock::time_point t0_;
    const vqllm::compiler::Engine *engine_ = nullptr;
    std::uint64_t run_id_ = 0;
    std::vector<Span> spans_;
    /** Open spans, innermost last. */
    std::vector<int> open_;
};

/** RAII span; a null recorder makes it a no-op (the untraced path). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name)
        : rec_(rec), idx_(rec != nullptr ? rec->begin(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_ != nullptr)
            rec_->end(idx_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    int idx_;
};

/**
 * Self-time metrics of a traced run: one `self.<span>_ms` per named
 * span and `self.remainder_ms` for time inside @p root spans not
 * covered by a named child, each divided by @p passes.  The values sum
 * to the mean traced pass's wall time.
 */
std::vector<Metric> selfTimeMetrics(const SpanRecorder &rec,
                                    const std::vector<std::string> &names,
                                    const std::string &root, double passes);

/** Write @p rec's spans to @p path (no-op for an empty path). */
void writeSpansFile(const std::string &path, const SpanRecorder &rec);

} // namespace perfbench
