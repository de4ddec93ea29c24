#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

void
PassClock::report(RunResult &r) const
{
    r.values["wall_s"] = median(pass_s_);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "wall_s: median of %zu passes %.4f s (q1 %.4f, q3 %.4f)",
                  pass_s_.size(), median(pass_s_), quantile(pass_s_, 0.25),
                  quantile(pass_s_, 0.75));
    r.notes.push_back(buf);
}

const std::vector<MetricSpec> &
endToEndSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"wall_s", "s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return specs;
}

const std::vector<std::string> &
selfTimeSpanNames()
{
    static const std::vector<std::string> names = {
        // serve_vq4: the benchmark's calls into SimulatorCore.
        "serving.construct", "serving.submit", "serving.set_now",
        "serving.step_warm", "serving.step_compiling", "serving.finalize",
        // fleet_prefix_int4: FleetSimulator's public calls.
        "fleet.construct", "fleet.run",
        // kernel_suite: fit, compile, emit, run, check.
        "vq.fit", "vq.profile", "vq.dequantize", "compiler.compile_miss",
        "compiler.compile_hit", "codegen.emit", "kernels.run",
        "kernels.reference"};
    return names;
}

const std::vector<MetricSpec> &
perLayerSpecs()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s = {
            // Simulated clock (deterministic per seed; unvalidated
            // except sim_latency_reduction_pct, see README.md).
            {"sim_ttft_p50_ms", "ms"},
            {"sim_ttft_p99_ms", "ms"},
            {"sim_tbt_p50_ms", "ms"},
            {"sim_tbt_p99_ms", "ms"},
            {"sim_tok_s", "1/s"},
            {"sim_kernel_us_geomean", "us"},
            {"sim_latency_reduction_pct", "%"},
            {"failed_frac", "ratio"},
            {"compiler.lookups", "count"},
            {"compiler.misses", "count"},
            {"compiler.hit_rate", "ratio"},
            {"compiler.miss_us_p50", "us"},
            {"compiler.miss_us_p99", "us"},
            {"compiler.hit_us_p50", "us"},
            {"codegen.emit_us_p50", "us"},
            {"codegen.source_bytes", "bytes"},
            {"gpusim.dram_bytes", "bytes"},
            {"gpusim.smem_conflict_ratio", "ratio"},
            {"cache.reg_hit_frac", "ratio"},
            {"cache.shared_hit_frac", "ratio"},
            {"cache.global_hit_frac", "ratio"},
            {"vq.fit_ms", "ms"},
            {"vq.recon_mse", "mse"},
            {"kernels.run_ms", "ms"},
            {"kernels.max_abs_err", "abs"},
            {"serving.steps", "count"},
            {"serving.step_warm_us_p50", "us"},
            {"serving.step_warm_us_p99", "us"},
            {"serving.step_compiling_ms", "ms"},
            {"serving.workload_gen_ms", "ms"},
            {"serving.finalize_ms", "ms"},
            {"serving.decode_batch_mean", "seqs"},
            {"serving.prefill_frac", "ratio"},
            {"serving.codebook_upload_frac", "ratio"},
            {"serving.codebook_hit_rate", "ratio"},
            {"serving.preemptions", "count"},
            {"serving.kv_peak_frac", "ratio"},
            {"serving.prefix_hit_rate", "ratio"},
            {"serving.prefix_tokens_saved", "tokens"},
            {"serving.cow_forks", "count"},
            {"serving.prefix_evicted_blocks", "count"},
            {"fleet.run_s", "s"},
            {"fleet.handoffs", "count"},
            {"fleet.kv_transfer_gb", "GB"},
            {"fleet.handoff_rejects", "count"},
            {"fleet.util_imbalance", "ratio"},
            {"fleet.requests_sent", "count"},
            {"fleet.requests_completed", "count"},
            {"fleet.requests_rejected", "count"},
            {"trace.overhead_frac", "ratio"},
        };
        for (const auto &n : selfTimeSpanNames())
            s.push_back({"self." + n + "_ms", "ms"});
        s.push_back({"self.remainder_ms", "ms"});
        return s;
    }();
    return specs;
}

} // namespace perfbench
