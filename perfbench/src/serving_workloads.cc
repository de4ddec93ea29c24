/**
 * @file
 * The serving workloads: serve_vq4 (one VQ4 replica, compiler-bound on
 * the host) and fleet_prefix_int4 (a disaggregated element-wise fleet
 * with shared prefixes, priced closed-form so the compiler does no
 * work).
 *
 * The benchmark generates every request trace itself from the run
 * seed; the simulators only receive the traces.  Untraced runs call
 * ServingSimulator::run / FleetSimulator::run.  The traced serving run
 * drives SimulatorCore through the same submit/setNow/step/finalize
 * sequence ServingSimulator::run performs, with a span around each
 * call, and its report must be json()-identical to the untraced one.
 */
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "common.h"
#include "compiler/engine.h"
#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "serving/sim_core.h"
#include "serving/simulator.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace vqllm;
using serving::Request;
using serving::ServingReport;
using Trace = std::vector<Request>;

// A serving workload is a fixed set of traces generated from the run
// seed.  One pass serves every trace once; passes repeat for at least
// the run length and wall_s is their median, which drops the passes
// the host stalls.

// serve_vq4: one Llama-7B replica on the RTX 4090 model serving VQ4
// weights and VQ4 KV, Poisson arrivals at 5 QPS (the knee is near 6)
// with the default prompt/generation mix and FCFS.  Each trace gets a
// fresh Engine: every serving_sim process pays its cold compiles.  How
// many distinct kernels a trace compiles depends on the tail of its
// length mix (552 to 879 misses over 600 s traces of different seeds),
// so a pass serves two independent 300 s traces, whose sum varies less
// from seed to seed than one trace does.
constexpr std::size_t kServeTraces = 2;
constexpr double kServeWindowS = 300;

// fleet_prefix_int4: 2 prefill + 2 decode replicas, EWQ4 weights with
// INT4 KV, prefix-affinity routing, 8 tenants with 1024-token shared
// prompts, prefix cache on, bursty arrivals at 8 QPS for 3600 s (about
// 29k requests), chunked prefill at fleet_sim's 512 tokens.
constexpr double kFleetWindowS = 3600;

serving::SimulatorConfig
serveConfig()
{
    serving::SimulatorConfig c;
    c.scheme = llm::QuantScheme::VQ4;
    c.kv_scheme = llm::KvScheme::VQ4;
    c.spec = &gpusim::rtx4090();
    c.model = &llm::llama7b();
    c.workload.qps = 5;
    c.workload.duration_s = kServeWindowS;
    return c;
}

fleet::FleetConfig
fleetConfig()
{
    fleet::FleetConfig c;
    c.router = fleet::RouterPolicy::PrefixAffinity;
    c.workload.qps = 8;
    c.workload.duration_s = kFleetWindowS;
    c.workload.arrival = serving::ArrivalPattern::Bursty;
    c.workload.prefix_groups = 8;
    c.workload.prefix_tokens = 1024;
    serving::SimulatorConfig sim;
    sim.scheme = llm::QuantScheme::EWQ4;
    sim.kv_scheme = llm::KvScheme::INT4;
    sim.spec = &gpusim::rtx4090();
    sim.model = &llm::llama7b();
    sim.prefix_cache = true;
    sim.scheduler.chunk_tokens = 512; // fleet_sim's default
    c.replicas.resize(4);
    for (std::size_t i = 0; i < c.replicas.size(); ++i) {
        c.replicas[i].sim = sim;
        c.replicas[i].role = i < 2 ? fleet::ReplicaRole::Prefill
                                   : fleet::ReplicaRole::Decode;
    }
    return c;
}

/** Set-up: generate the run's @p n traces kSetupRepeats times and
 *  record setup_s; @return the traces. */
std::vector<Trace>
generateTraces(RunResult &r, const serving::WorkloadConfig &base,
               std::uint64_t seed, std::size_t n)
{
    std::vector<Trace> traces;
    std::vector<double> times;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        auto t0 = Clock::now();
        traces.clear();
        for (std::size_t i = 0; i < n; ++i) {
            serving::WorkloadConfig w = base;
            w.seed = subSeed(seed, i);
            traces.push_back(serving::generateWorkload(w));
        }
        times.push_back(secondsSince(t0));
    }
    r.values["setup_s"] = median(times);
    return traces;
}

bool
tiles(const ServingReport &r)
{
    double parts =
        r.prefill_us + r.decode_us + r.comm_us + r.codebook_upload_us;
    return std::abs(parts - r.busy_time_us) <=
           1e-6 * std::max(1.0, std::abs(r.busy_time_us));
}

/** Gates every serving report passes, plus the requests it accounts. */
void
checkServingReport(RunResult &r, const ServingReport &rep,
                   std::size_t sent, const std::string &what)
{
    r.check(tiles(rep), what + ": busy-time breakdown tiles busy_time_us");
    r.check(rep.completed_requests + rep.rejected_requests == sent,
            what + ": completed + rejected == requests sent");
    r.attempted += sent;
    r.failed += rep.rejected_requests;
}

// ------------------------------------------------------------ serve_vq4

/** Host-side figures of one traced serve run. */
struct StepTimes
{
    std::vector<double> warm_us;
    std::vector<double> hit_us_per_lookup;
    std::vector<double> compiling_us;
    std::vector<std::uint64_t> compiling_misses;
    std::vector<double> finalize_ms;
    double decode_batch_sum = 0;
    double decode_batch_count = 0;
};

ServingReport
untracedServe(const serving::SimulatorConfig &base, Trace &trace)
{
    compiler::Engine eng(*base.spec);
    serving::SimulatorConfig cfg = base;
    cfg.engine = &eng;
    return serving::ServingSimulator(cfg).run(trace);
}

/** ServingSimulator::run's loop over SimulatorCore, with a span around
 *  every call and a metrics registry attached. */
ServingReport
tracedServe(const serving::SimulatorConfig &base, Trace &trace,
            SpanRecorder &rec, StepTimes &st)
{
    compiler::Engine eng(*base.spec);
    obs::MetricsRegistry registry;
    serving::SimulatorConfig cfg = base;
    cfg.engine = &eng;
    cfg.metrics = &registry;
    rec.newRun();
    rec.setEngine(&eng);
    ServingReport report;
    {
        ScopedSpan root(&rec, "serve.run");
        std::optional<serving::SimulatorCore> core;
        {
            ScopedSpan s(&rec, "serving.construct");
            core.emplace(cfg);
        }
        std::size_t next = 0;
        while (core->completedCount() + core->rejectedCount() <
               trace.size()) {
            while (next < trace.size() &&
                   trace[next].arrival_us <= core->now()) {
                ScopedSpan s(&rec, "serving.submit");
                core->submit(&trace[next++]);
            }
            if (core->idle()) {
                if (next >= trace.size())
                    break;
                ScopedSpan s(&rec, "serving.set_now");
                core->setNow(trace[next].arrival_us);
                continue;
            }
            int idx = rec.begin("serving.step_warm");
            core->step();
            Span &sp = rec.end(idx);
            double us = sp.end_us - sp.start_us;
            if (sp.misses > 0) {
                sp.name = "serving.step_compiling";
                st.compiling_us.push_back(us);
                st.compiling_misses.push_back(sp.misses);
            } else {
                st.warm_us.push_back(us);
                if (sp.lookups > 0)
                    st.hit_us_per_lookup.push_back(
                        us / static_cast<double>(sp.lookups));
            }
        }
        int idx = rec.begin("serving.finalize");
        report = core->finalize();
        Span &sp = rec.end(idx);
        st.finalize_ms.push_back((sp.end_us - sp.start_us) / 1e3);
    }
    rec.setEngine(nullptr);
    if (const auto *h =
            registry.findHistogram("serving.iteration.decode_batch")) {
        st.decode_batch_sum += h->sum();
        st.decode_batch_count += static_cast<double>(h->count());
    }
    return report;
}

/** Record and note the simulated-clock metrics of a report's latency
 *  populations; tokens/s is over the simulated makespan. */
void
simMetrics(RunResult &r, const serving::LatencyStats &ttft,
           const serving::LatencyStats &tbt, double decode_tokens,
           double makespan_us)
{
    auto &v = r.values;
    v["sim_ttft_p50_ms"] = ttft.p50_us / 1e3;
    v["sim_ttft_p99_ms"] = ttft.p99_us / 1e3;
    v["sim_tbt_p50_ms"] = tbt.p50_us / 1e3;
    v["sim_tbt_p99_ms"] = tbt.p99_us / 1e3;
    v["sim_tok_s"] = decode_tokens / (makespan_us / 1e6);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "sim (unvalidated, no reference in the repo): TTFT p50 "
                  "%.3f ms p99 %.3f ms over %zu requests, TBT p50 %.3f ms "
                  "p99 %.3f ms over %zu gaps, %.1f tok/s",
                  v["sim_ttft_p50_ms"], v["sim_ttft_p99_ms"], ttft.count,
                  v["sim_tbt_p50_ms"], v["sim_tbt_p99_ms"], tbt.count,
                  v["sim_tok_s"]);
    r.notes.push_back(buf);
}

/**
 * The measured phase shared by the serving workloads: passes over
 * fresh copies of @p traces (made outside the timing) for at least the
 * run length.  A traced run follows each untraced pass with a traced
 * pass and requires json()-identical reports; an untraced run makes
 * one traced run of the first trace at the end for the same check.
 * Every pass must reproduce the first pass's reports exactly.
 * @return the first pass's report of each trace.
 */
template <class Report, class Untraced, class Traced>
std::vector<Report>
measurePasses(RunResult &r, const RunArgs &args,
              const std::vector<Trace> &traces, Untraced untraced,
              Traced traced, PassClock &clock, std::vector<double> &traced_s)
{
    std::vector<Report> first;
    auto t_phase = Clock::now();
    do {
        std::vector<Trace> work = traces;
        std::vector<Report> reports = clock.time([&] {
            std::vector<Report> out;
            for (Trace &t : work)
                out.push_back(untraced(t));
            return out;
        });
        if (args.trace) {
            work = traces;
            auto t0 = Clock::now();
            std::vector<Report> traced_reports;
            for (Trace &t : work)
                traced_reports.push_back(traced(t));
            traced_s.push_back(secondsSince(t0));
            for (std::size_t i = 0; i < traces.size(); ++i)
                r.check(traced_reports[i].json() == reports[i].json(),
                        "trace " + std::to_string(i) +
                            ": traced report equals the untraced one");
        }
        if (first.empty()) {
            r.values["peak_rss_mb"] = peakRssMb();
            first = std::move(reports);
        } else {
            for (std::size_t i = 0; i < traces.size(); ++i)
                r.check(first[i].json() == reports[i].json(),
                        "trace " + std::to_string(i) +
                            ": report identical across repeats");
        }
    } while (secondsSince(t_phase) < args.seconds);
    if (!args.trace) {
        Trace work = traces[0];
        r.check(traced(work).json() == first[0].json(),
                "trace 0: traced report equals the untraced one");
    }
    clock.report(r);
    return first;
}

} // namespace

RunResult
runServeVq4(const RunArgs &args)
{
    RunResult r;
    const serving::SimulatorConfig cfg = serveConfig();
    const std::vector<Trace> traces =
        generateTraces(r, cfg.workload, args.seed, kServeTraces);

    SpanRecorder rec;
    StepTimes st;
    PassClock clock;
    std::vector<double> traced_s;
    const std::vector<ServingReport> reports =
        measurePasses<ServingReport>(
            r, args, traces,
            [&](Trace &t) { return untracedServe(cfg, t); },
            [&](Trace &t) { return tracedServe(cfg, t, rec, st); }, clock,
            traced_s);

    // Pass totals; latency percentiles averaged over the traces.
    serving::LatencyStats ttft, tbt;
    double decode_tokens = 0, makespan = 0, busy = 0, prefill = 0,
           upload = 0, hit_rate = 0, kv_peak = 0;
    std::uint64_t lookups = 0, misses = 0, steps = 0, preemptions = 0;
    const double n = static_cast<double>(reports.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const ServingReport &rep = reports[i];
        checkServingReport(r, rep, traces[i].size(),
                           "trace " + std::to_string(i));
        for (auto [sum, one] : {std::pair{&ttft, &rep.ttft},
                                std::pair{&tbt, &rep.tbt}}) {
            sum->count += one->count;
            sum->p50_us += one->p50_us / n;
            sum->p99_us += one->p99_us / n;
        }
        decode_tokens += static_cast<double>(rep.decode_tokens);
        makespan += rep.sim_time_us;
        busy += rep.busy_time_us;
        prefill += rep.prefill_us;
        upload += rep.codebook_upload_us;
        hit_rate += rep.codebook_hit_rate / n;
        kv_peak = std::max(kv_peak,
                           static_cast<double>(rep.kv_peak_bytes) /
                               static_cast<double>(rep.kv_capacity_bytes));
        lookups += rep.plan_cache_hits + rep.plan_cache_misses;
        misses += rep.plan_cache_misses;
        steps += rep.iterations;
        preemptions += rep.preemptions;
    }
    simMetrics(r, ttft, tbt, decode_tokens, makespan);

    if (args.trace) {
        const double passes = static_cast<double>(traced_s.size());
        double warm_p50 = median(st.warm_us);
        std::vector<double> miss_us;
        for (std::size_t i = 0; i < st.compiling_us.size(); ++i)
            miss_us.push_back((st.compiling_us[i] - warm_p50) /
                              static_cast<double>(st.compiling_misses[i]));
        double compiling = 0;
        for (double us : st.compiling_us)
            compiling += us;
        auto &v = r.values;
        auto d = [](std::uint64_t x) { return static_cast<double>(x); };
        v["compiler.lookups"] = d(lookups);
        v["compiler.misses"] = d(misses);
        v["compiler.hit_rate"] = d(lookups - misses) / d(lookups);
        v["compiler.miss_us_p50"] = quantile(miss_us, 0.5);
        v["compiler.miss_us_p99"] = quantile(miss_us, 0.99);
        v["compiler.hit_us_p50"] = median(st.hit_us_per_lookup);
        v["serving.steps"] = d(steps);
        v["serving.step_warm_us_p50"] = warm_p50;
        v["serving.step_warm_us_p99"] = quantile(st.warm_us, 0.99);
        v["serving.step_compiling_ms"] = compiling / passes / 1e3;
        v["serving.workload_gen_ms"] = v["setup_s"] * 1e3;
        v["serving.finalize_ms"] = median(st.finalize_ms);
        v["serving.decode_batch_mean"] =
            st.decode_batch_sum / std::max(st.decode_batch_count, 1.0);
        v["serving.prefill_frac"] = prefill / busy;
        v["serving.codebook_upload_frac"] = upload / busy;
        v["serving.codebook_hit_rate"] = hit_rate;
        v["serving.preemptions"] = d(preemptions);
        v["serving.kv_peak_frac"] = kv_peak;
        v["trace.overhead_frac"] = mean(traced_s) / mean(clock.passes()) - 1.0;
        for (const Metric &m :
             selfTimeMetrics(rec, selfTimeSpanNames(), "serve.run", passes))
            v[m.name] = m.value;
        writeSpansFile(args.spans_out, rec);
    }
    r.values["failed_frac"] =
        static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    return r;
}

RunResult
runFleetPrefixInt4(const RunArgs &args)
{
    RunResult r;
    const fleet::FleetConfig cfg = fleetConfig();
    const std::vector<Trace> traces =
        generateTraces(r, cfg.workload, args.seed, 1);
    const Trace &trace = traces[0];

    SpanRecorder rec;
    PassClock clock;
    std::vector<double> traced_s, run_s;
    double decode_batch_sum = 0, decode_batch_count = 0;
    auto traced = [&](Trace &work) {
        obs::MetricsRegistry registry;
        std::vector<obs::MetricsRegistry> replica_regs(cfg.replicas.size());
        fleet::FleetConfig c = cfg;
        c.metrics = &registry;
        for (std::size_t i = 0; i < c.replicas.size(); ++i)
            c.replicas[i].sim.metrics = &replica_regs[i];
        rec.newRun();
        ScopedSpan root(&rec, "fleet.pass");
        std::optional<fleet::FleetSimulator> fsim;
        {
            ScopedSpan s(&rec, "fleet.construct");
            fsim.emplace(c);
        }
        int idx = rec.begin("fleet.run");
        fleet::FleetReport rep = fsim->run(work);
        Span &sp = rec.end(idx);
        run_s.push_back((sp.end_us - sp.start_us) / 1e6);
        for (const auto &reg : replica_regs)
            if (const auto *h =
                    reg.findHistogram("serving.iteration.decode_batch")) {
                decode_batch_sum += h->sum();
                decode_batch_count += static_cast<double>(h->count());
            }
        return rep;
    };
    const fleet::FleetReport rep = measurePasses<fleet::FleetReport>(
        r, args, traces,
        [&](Trace &t) { return fleet::FleetSimulator(cfg).run(t); }, traced,
        clock, traced_s)[0];

    r.check(rep.completed_requests + rep.rejected_requests == trace.size(),
            "fleet: completed + rejected == requests sent");
    r.attempted += trace.size();
    r.failed += rep.rejected_requests;
    double busy = 0, prefill = 0, upload = 0, kv_peak = 0, hit_rate = 0,
           decode_tokens = 0;
    std::uint64_t steps = 0, lookups = 0, misses = 0, matched = 0,
                  prefilled = 0, cow = 0, evicted = 0, preempt = 0;
    for (std::size_t i = 0; i < rep.replicas.size(); ++i) {
        const ServingReport &s = rep.replicas[i].report;
        r.check(tiles(s), "replica " + std::to_string(i) +
                              ": busy-time breakdown tiles busy_time_us");
        busy += s.busy_time_us;
        prefill += s.prefill_us;
        upload += s.codebook_upload_us;
        hit_rate += s.codebook_hit_rate;
        kv_peak = std::max(kv_peak,
                           static_cast<double>(s.kv_peak_bytes) /
                               static_cast<double>(s.kv_capacity_bytes));
        steps += s.iterations;
        lookups += s.plan_cache_hits + s.plan_cache_misses;
        misses += s.plan_cache_misses;
        matched += s.prefix_matched_tokens;
        prefilled += s.prefill_tokens;
        cow += s.cow_forks;
        evicted += s.prefix_evicted_blocks;
        preempt += s.preemptions;
        decode_tokens += static_cast<double>(s.decode_tokens);
    }
    // Fleet decode tokens per simulated second of the fleet makespan.
    simMetrics(r, rep.ttft, rep.tbt, decode_tokens, rep.sim_time_us);

    if (args.trace) {
        auto &v = r.values;
        auto d = [](std::uint64_t x) { return static_cast<double>(x); };
        v["compiler.lookups"] = d(lookups);
        v["compiler.misses"] = d(misses);
        v["compiler.hit_rate"] =
            lookups > 0 ? d(lookups - misses) / d(lookups) : 1.0;
        v["serving.steps"] = d(steps);
        v["serving.workload_gen_ms"] = v["setup_s"] * 1e3;
        v["serving.decode_batch_mean"] =
            decode_batch_sum / std::max(decode_batch_count, 1.0);
        v["serving.prefill_frac"] = prefill / busy;
        v["serving.codebook_upload_frac"] = upload / busy;
        v["serving.codebook_hit_rate"] =
            hit_rate / static_cast<double>(rep.replicas.size());
        v["serving.preemptions"] = d(preempt);
        v["serving.kv_peak_frac"] = kv_peak;
        v["serving.prefix_hit_rate"] =
            matched + prefilled > 0 ? d(matched) / d(matched + prefilled)
                                    : 0.0;
        v["serving.prefix_tokens_saved"] = d(matched);
        v["serving.cow_forks"] = d(cow);
        v["serving.prefix_evicted_blocks"] = d(evicted);
        v["fleet.run_s"] = median(run_s);
        v["fleet.handoffs"] = d(rep.handoffs);
        v["fleet.kv_transfer_gb"] = d(rep.kv_transfer_bytes) / 1e9;
        v["fleet.handoff_rejects"] = d(rep.handoff_rejects);
        v["fleet.util_imbalance"] = rep.util_imbalance;
        v["fleet.requests_sent"] = d(trace.size());
        v["fleet.requests_completed"] = d(rep.completed_requests);
        v["fleet.requests_rejected"] = d(rep.rejected_requests);
        v["trace.overhead_frac"] = mean(traced_s) / mean(clock.passes()) - 1.0;
        for (const Metric &m :
             selfTimeMetrics(rec, selfTimeSpanNames(), "fleet.pass",
                             static_cast<double>(traced_s.size())))
            v[m.name] = m.value;
        writeSpansFile(args.spans_out, rec);
    }
    r.values["failed_frac"] =
        static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    return r;
}

} // namespace perfbench
