#include "core/extensions.hpp"

#include "hw/cost_table.hpp"

#include <stdexcept>

namespace powerlens::core {

JointPlan optimize_joint_oracle(const dnn::Graph& graph,
                                const hw::Platform& platform,
                                const DatasetGenConfig& config) {
  PowerLensConfig lens_config;
  lens_config.dataset = config;
  const PowerLens framework(platform, lens_config);
  OptimizationPlan plan = framework.plan(
      graph,
      {.hyper_stage = PowerLens::PlanSpec::Hyper::kOracleSweep,
       .level_stage = PowerLens::PlanSpec::Levels::kJointArgmin},
      nullptr);

  JointPlan joint{std::move(plan.view), std::move(plan.block_levels), {},
                  std::move(plan.schedule)};
  for (const hw::PresetPoint& p : joint.schedule.cpu_points) {
    joint.cpu_levels.push_back(p.gpu_level);  // a CPU level on cpu_points
  }
  return joint;
}

BatchChoice choose_batch_size(
    const std::function<dnn::Graph(std::int64_t)>& build,
    std::span<const std::int64_t> candidates, const hw::Platform& platform,
    double max_pass_latency_s, const DatasetGenConfig& config) {
  if (!build || candidates.empty()) {
    throw std::invalid_argument("choose_batch_size: no candidates");
  }
  DatasetGenConfig cfg = config;
  if (cfg.cpu_level_for_labels == 0) {
    cfg.cpu_level_for_labels = platform.max_cpu_level();
  }

  BatchChoice best;
  for (std::int64_t batch : candidates) {
    if (batch <= 0) {
      throw std::invalid_argument("choose_batch_size: batch must be > 0");
    }
    const dnn::Graph graph = build(batch);
    const std::size_t cpu_levels[] = {platform.max_cpu_level(),
                                      cfg.cpu_level_for_labels};
    const hw::CostTable costs(platform, graph.layers(), cpu_levels);
    const GridSweep sweep = sweep_hyperparam_grid(graph, costs, platform, cfg);
    const ViewEvaluation& ev = sweep.eval;

    if (max_pass_latency_s > 0.0 && ev.time_s > max_pass_latency_s) {
      continue;
    }
    const double ee = static_cast<double>(batch) / ev.energy_j;
    if (best.batch == 0 || ee > best.ee_images_per_joule) {
      best = {batch, ee, ev.time_s, sweep.view.block_count()};
    }
  }
  if (best.batch == 0) {
    throw std::invalid_argument(
        "choose_batch_size: no candidate satisfies the latency budget");
  }
  return best;
}

}  // namespace powerlens::core
