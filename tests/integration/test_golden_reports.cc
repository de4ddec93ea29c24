/**
 * @file
 * Golden-report tests: small serving and fleet configurations must
 * reproduce the checked-in report bytes in tests/golden/ exactly —
 * ServingReport json() and summary(), the metrics registry json(), and
 * the FleetReport json() and summary().  Refactors that claim to keep
 * every report byte-identical are held to it here.  The comparison is
 * plain string equality; there is no switch that rewrites the files.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "serving/simulator.h"

namespace vqllm {
namespace {

/** One named report surface and its rendered bytes. */
using Surface = std::pair<std::string, std::string>;

/** Directory of the golden files, next to this source file. */
std::string
goldenDir()
{
    std::string here = __FILE__;
    return here.substr(0, here.find_last_of('/')) + "/../golden/";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Run one simulation with a registry; append its three surfaces. */
void
serveSurfaces(const std::string &name, serving::SimulatorConfig cfg,
              std::vector<Surface> &out)
{
    obs::MetricsRegistry reg;
    cfg.metrics = &reg;
    serving::ServingReport rep = serving::ServingSimulator(cfg).run();
    out.emplace_back(name + ".report.json", rep.json());
    out.emplace_back(name + ".summary.txt", rep.summary());
    out.emplace_back(name + ".metrics.json", reg.json());
}

serving::SimulatorConfig
smallServe(llm::QuantScheme scheme)
{
    serving::SimulatorConfig cfg;
    cfg.scheme = scheme;
    cfg.workload.qps = 6;
    cfg.workload.duration_s = 8;
    return cfg;
}

/** Every golden surface, in a fixed order. */
std::vector<Surface>
goldenSurfaces()
{
    std::vector<Surface> out;

    serveSurfaces("vq4_default", smallServe(llm::QuantScheme::VQ4), out);

    serving::SimulatorConfig tp = smallServe(llm::QuantScheme::VQ2);
    tp.tp.degree = 4;
    tp.prefix_cache = true;
    tp.workload.prefix_groups = 4;
    tp.workload.prefix_tokens = 256;
    tp.scheduler.chunk_tokens = 512;
    serveSurfaces("vq2_tp4_prefix_chunked", tp, out);

    serving::SimulatorConfig kv = smallServe(llm::QuantScheme::FP16);
    kv.kv_scheme = llm::KvScheme::VQ4;
    serveSurfaces("fp16_kv_vq4", kv, out);

    fleet::FleetConfig fc;
    fc.workload.qps = 6;
    fc.workload.duration_s = 6;
    fc.workload.arrival = serving::ArrivalPattern::Bursty;
    for (fleet::ReplicaRole role :
         {fleet::ReplicaRole::Prefill, fleet::ReplicaRole::Decode}) {
        fleet::ReplicaConfig rep;
        rep.sim.scheme = llm::QuantScheme::FP16;
        rep.sim.kv_scheme = llm::KvScheme::VQ4;
        rep.sim.scheduler.chunk_tokens = 512;
        rep.role = role;
        fc.replicas.push_back(rep);
    }
    fleet::FleetReport frep = fleet::FleetSimulator(fc).run();
    out.emplace_back("fleet_disagg.report.json", frep.json());
    out.emplace_back("fleet_disagg.summary.txt", frep.summary());
    return out;
}

TEST(GoldenReports, EverySurfaceMatchesItsGoldenFileByteForByte)
{
    const std::vector<Surface> surfaces = goldenSurfaces();
    ASSERT_EQ(surfaces.size(), 11u);
    for (const auto &[name, bytes] : surfaces) {
        SCOPED_TRACE(name);
        EXPECT_EQ(bytes, readFile(goldenDir() + name));
    }
}

} // namespace
} // namespace vqllm
