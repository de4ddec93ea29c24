#include "serving/simulator.h"

#include "common/logging.h"
#include "common/parallel.h"
#include "serving/sim_core.h"

namespace vqllm::serving {

std::uint64_t
kvCapacityPerDeviceBytes(const SimulatorConfig &cfg,
                         const llm::LlamaConfig &model)
{
    const std::string split_error =
        llm::tpSplitError(model, cfg.tp.degree);
    if (!split_error.empty())
        vqllm_fatal(split_error);
    const auto degree = static_cast<std::size_t>(cfg.tp.degree);
    // Each device holds 1/degree of the weights; its pool gets what
    // that shard leaves free of the per-GPU HBM.
    double weight_bytes = static_cast<double>(model.decoderParams()) *
                          llm::schemeWeightBytesPerParam(cfg.scheme) /
                          static_cast<double>(degree);
    double free_bytes =
        cfg.hbm_gb * 1e9 - weight_bytes - cfg.hbm_reserve_gb * 1e9;
    if (free_bytes <= 0)
        vqllm_fatal("model weight shard (", weight_bytes / 1e9,
                    " GB) exceeds HBM budget of ", cfg.hbm_gb,
                    " GB per device at TP degree ", cfg.tp.degree);
    return static_cast<std::uint64_t>(free_bytes);
}

ServingSimulator::ServingSimulator(const SimulatorConfig &cfg)
    : cfg_(cfg),
      spec_(cfg.spec != nullptr ? *cfg.spec : gpusim::rtx4090()),
      model_(cfg.model != nullptr ? *cfg.model : llm::llama7b())
{
    kv_capacity_per_device_ = kvCapacityPerDeviceBytes(cfg_, model_);
    kv_capacity_bytes_ = kv_capacity_per_device_ *
                         static_cast<std::size_t>(cfg_.tp.degree);
}

ServingReport
ServingSimulator::run()
{
    auto trace = generateWorkload(cfg_.workload);
    return run(trace);
}

std::vector<ServingReport>
ServingSimulator::runMany(const std::vector<SimulatorConfig> &configs)
{
    std::vector<ServingReport> reports(configs.size());
    par::parallelFor(configs.size(), 1, [&](const par::ChunkRange &c) {
        for (std::size_t i = c.begin; i < c.end; ++i)
            reports[i] = ServingSimulator(configs[i]).run();
    });
    return reports;
}

ServingReport
ServingSimulator::run(std::vector<Request> &trace)
{
    // Thin driver over the stepping core (serving/sim_core.h): deliver
    // arrivals, fast-forward idle gaps to the next arrival, and step
    // until every request has finished or been rejected.  The fleet
    // layer drives the same core with its own clock policy, which is
    // what keeps a 1-replica fleet bit-identical to this loop.
    SimulatorCore core(cfg_);
    std::size_t next_arrival = 0;
    while (core.completedCount() + core.rejectedCount() < trace.size()) {
        while (next_arrival < trace.size() &&
               trace[next_arrival].arrival_us <= core.now())
            core.submit(&trace[next_arrival++]);
        if (core.idle()) {
            if (next_arrival >= trace.size())
                break; // every remaining request was rejected
            core.setNow(trace[next_arrival].arrival_us);
            continue;
        }
        core.step();
    }
    return core.finalize();
}

} // namespace vqllm::serving
