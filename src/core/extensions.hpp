// Extensions sketched in the paper's conclusion / related-work sections:
//
//   1. Joint CPU + GPU DVFS ("In the future, we will incorporate more
//      configurable optimization options into PowerLens, such as CPU DVFS").
//      Per power block, the oracle sweeps the (gpu_level, cpu_level) product
//      and the resulting plan presets both ladders at each instrumentation
//      point.
//   2. Batch-size co-optimization (related work [15]: "synergizing DVFS
//      technology with factors like batchsize"). For a model deployed with a
//      latency budget per image, the sweep picks the (batch, frequency)
//      pair maximizing energy efficiency.
#pragma once

#include "core/powerlens.hpp"

#include <functional>
#include <string>
#include <vector>

namespace powerlens::core {

struct JointPlan {
  clustering::PowerView view;
  std::vector<std::size_t> gpu_levels;  // one per block
  std::vector<std::size_t> cpu_levels;  // one per block
  hw::PresetSchedule schedule;          // GPU + CPU preset points
};

// Joint CPU+GPU oracle optimization: a composition of PowerLens's staged
// planner — the oracle grid sweep's winning view, exactly as
// PowerLens::optimize_oracle, then per block the energy argmin over the full
// (gpu, cpu) level product of one all-plane cost table.
JointPlan optimize_joint_oracle(const dnn::Graph& graph,
                                const hw::Platform& platform,
                                const DatasetGenConfig& config = {});

struct BatchChoice {
  std::int64_t batch = 0;
  double ee_images_per_joule = 0.0;
  double pass_latency_s = 0.0;  // time to complete one batch (response delay)
  std::size_t blocks = 0;
};

// Sweeps candidate batch sizes for a model: each candidate is priced by the
// oracle grid sweep's winning view, and candidates whose batch-completion
// latency exceeds `max_pass_latency_s` are skipped (0 disables the
// constraint). Larger batches amortize weight traffic and launch overhead
// (better EE) but delay results — the constraint captures that trade.
// Returns the EE-best feasible choice; throws std::invalid_argument if none
// is feasible.
BatchChoice choose_batch_size(
    const std::function<dnn::Graph(std::int64_t)>& build,
    std::span<const std::int64_t> candidates, const hw::Platform& platform,
    double max_pass_latency_s = 0.0,
    const DatasetGenConfig& config = {});

}  // namespace powerlens::core
