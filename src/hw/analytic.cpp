#include "hw/analytic.hpp"

#include "hw/cost_table.hpp"

namespace powerlens::hw {

BlockCost analytic_block_cost(const Platform& platform,
                              std::span<const dnn::Layer> layers,
                              std::size_t gpu_level, std::size_t cpu_level,
                              double cpu_load) {
  const LatencyModel latency(platform);
  const PowerModel power(platform);
  const double gpu_f = platform.gpu_freq(gpu_level);
  const double cpu_f = platform.cpu_freq(cpu_level);

  BlockCost cost;
  for (const dnn::Layer& l : layers) {
    if (l.type == dnn::OpType::kInput) continue;
    const LayerTiming t = latency.time_layer(l, gpu_f, cpu_f);
    const ActivityState act{t.gpu_activity, t.mem_activity, cpu_load};
    cost.time_s += t.total_s;
    cost.energy_j += power.total_w_at(gpu_level, cpu_level, act) * t.total_s;
  }
  return cost;
}

BlockCost schedule_cost(const Platform& platform,
                        std::span<const dnn::Layer> layers,
                        const PresetSchedule& schedule,
                        std::size_t initial_gpu_level,
                        std::size_t initial_cpu_level, double cpu_load) {
  const LatencyModel latency(platform);
  const PowerModel power(platform);
  std::size_t gpu_level = initial_gpu_level;
  std::size_t cpu_level = initial_cpu_level;

  BlockCost cost;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    // Apply presets before pricing the layer — the engine switches at the
    // block boundary, before executing the boundary layer.
    if (const auto level = schedule.level_at(i)) gpu_level = *level;
    if (const auto level = schedule.cpu_level_at(i)) cpu_level = *level;
    const dnn::Layer& l = layers[i];
    if (l.type == dnn::OpType::kInput) continue;
    const double gpu_f = platform.gpu_freq(gpu_level);
    const double cpu_f = platform.cpu_freq(cpu_level);
    const LayerTiming t = latency.time_layer(l, gpu_f, cpu_f);
    const ActivityState act{t.gpu_activity, t.mem_activity, cpu_load};
    cost.time_s += t.total_s;
    cost.energy_j += power.total_w_at(gpu_level, cpu_level, act) * t.total_s;
  }
  return cost;
}

CostFeatures CostFeatures::extract(const Platform& platform,
                                   std::span<const dnn::Layer> layers) {
  const LatencyModel latency(platform);
  CostFeatures f;
  f.num_layers = layers.size();
  f.flops.resize(layers.size());
  f.eff.resize(layers.size());
  f.memory_s.resize(layers.size());
  f.active.resize(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const dnn::Layer& layer = layers[l];
    if (layer.type == dnn::OpType::kInput) continue;  // row stays zeroed
    f.active[l] = 1;
    f.flops[l] =
        layer.flops > 0 ? static_cast<double>(layer.flops) : 0.0;
    f.eff[l] = LatencyModel::compute_efficiency(layer);
    f.memory_s[l] = layer.mem_bytes > 0
                        ? static_cast<double>(layer.mem_bytes) /
                              latency.effective_bandwidth()
                        : 0.0;
  }
  return f;
}

std::size_t optimal_gpu_level(const Platform& platform,
                              std::span<const dnn::Layer> layers,
                              std::size_t cpu_level, double cpu_load) {
  // One-cpu-plane table: same total work as the direct ladder scan, and the
  // prefix accumulation from layer 0 is bitwise identical to it, so this is
  // purely a shared code path with CostTable::optimal_gpu_level.
  const std::size_t cpu_levels[] = {cpu_level};
  const CostTable table(platform, layers, cpu_levels, cpu_load);
  return table.optimal_gpu_level(0, layers.size(), cpu_level);
}

}  // namespace powerlens::hw
