/**
 * @file
 * vqllm_perfbench: the repository benchmark's measuring program.
 *
 *   vqllm_perfbench --workload serve_vq4|fleet_prefix_int4|kernel_suite
 *                   --seed N --seconds S --trace 0|1 [--spans-out FILE]
 *
 * Generates the workload's inputs from the seed, sets up several times
 * (setup_s is the median), then repeats the workload for at least S host
 * seconds.  An untraced run prints the end-to-end metrics; a traced run
 * records spans around every public call it makes into a layer and
 * prints the per-layer metrics.  Both run the correctness gates.  The
 * last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * The exit code is 0 only when every gate passed.
 */
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.h"
#include "common/parallel.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "vqllm_perfbench: %s\nusage: vqllm_perfbench --workload "
                 "serve_vq4|fleet_prefix_int4|kernel_suite --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE]\n",
                 msg.c_str());
    std::exit(2);
}

RunArgs
parseArgs(int argc, char **argv)
{
    RunArgs a;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("flag " + flag + " needs a value");
        std::string v = argv[++i];
        try {
            std::size_t used = 0;
            if (flag == "--workload") {
                a.workload = v;
            } else if (flag == "--seed") {
                a.seed = std::stoull(v, &used);
                have_seed = used == v.size();
            } else if (flag == "--seconds") {
                a.seconds = std::stod(v, &used);
                have_seconds = used == v.size() && a.seconds > 0;
            } else if (flag == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace expects 0 or 1");
                a.trace = v == "1";
            } else if (flag == "--spans-out") {
                a.spans_out = v;
            } else {
                usage("unknown flag '" + flag + "'");
            }
        } catch (const std::exception &) {
            usage("bad value '" + v + "' for " + flag);
        }
    }
    if (a.workload.empty() || !have_seed || !have_seconds)
        usage("--workload, --seed and --seconds are required");
    return a;
}

void
printResult(const RunArgs &args, const RunResult &r)
{
    const auto &specs = args.trace ? perLayerSpecs() : endToEndSpecs();
    std::string metrics;
    for (const auto &spec : specs) {
        auto it = r.values.find(spec.name);
        if (it == r.values.end() && !args.trace)
            throw std::logic_error("end-to-end metric '" + spec.name +
                                   "' was not measured");
        double v = it != r.values.end() ? it->second : 0.0;
        if (!std::isfinite(v))
            throw std::logic_error("metric '" + spec.name +
                                   "' is not finite");
        char buf[128];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        metrics += (metrics.empty() ? "" : ", ") +
                   ("\"" + spec.name + "\": {\"value\": " + buf +
                    ", \"unit\": \"" + spec.unit + "\"}");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                r.correct() ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                metrics.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args = parseArgs(argc, argv);
    // One process with a one-thread host pool.  A parallel region waits
    // for its slowest worker, so on a shared host whose vCPUs are
    // intermittently stolen a 4-thread kernel_suite pass swung between
    // 2.0 and 5.0 s from run to run; single-threaded passes do not.
    vqllm::par::setThreads(1);

    try {
        RunResult r;
        if (args.workload == "serve_vq4")
            r = runServeVq4(args);
        else if (args.workload == "fleet_prefix_int4")
            r = runFleetPrefixInt4(args);
        else if (args.workload == "kernel_suite")
            r = runKernelSuite(args);
        else
            usage("unknown workload '" + args.workload + "'");
        for (const auto &line : r.notes)
            std::printf("%s\n", line.c_str());
        for (const auto &f : r.failures)
            std::fprintf(stderr, "FAILED: %s\n", f.c_str());
        std::fflush(stderr);
        printResult(args, r);
        return r.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vqllm_perfbench: %s\n", e.what());
        return 3;
    }
}
