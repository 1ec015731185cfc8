#include "hw/cost_table.hpp"

#include "linalg/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace powerlens::hw {

CostTable::CostTable(const Platform& platform,
                     std::span<const dnn::Layer> layers, double cpu_load) {
  std::vector<std::size_t> all(platform.cpu_levels());
  std::iota(all.begin(), all.end(), std::size_t{0});
  init(platform, CostFeatures::extract(platform, layers), all, cpu_load);
}

CostTable::CostTable(const Platform& platform,
                     std::span<const dnn::Layer> layers,
                     std::span<const std::size_t> cpu_levels, double cpu_load) {
  init(platform, CostFeatures::extract(platform, layers), cpu_levels,
       cpu_load);
}

CostTable::CostTable(const Platform& platform, const CostFeatures& features,
                     std::span<const std::size_t> cpu_levels,
                     double cpu_load) {
  init(platform, features, cpu_levels, cpu_load);
}

void CostTable::init(const Platform& platform, const CostFeatures& features,
                     std::span<const std::size_t> cpu_levels,
                     double cpu_load) {
  num_layers_ = features.num_layers;
  gpu_levels_ = platform.gpu_levels();
  cpu_slot_.assign(platform.cpu_levels(), kNoSlot);
  for (const std::size_t c : cpu_levels) {
    if (c >= platform.cpu_levels()) {
      throw std::out_of_range("CostTable: cpu level out of range");
    }
    if (cpu_slot_[c] == kNoSlot) cpu_slot_[c] = cpu_slots_++;
  }
  if (cpu_slots_ == 0) {
    throw std::invalid_argument("CostTable: no cpu levels requested");
  }

  const std::size_t run = num_layers_ + 1;
  time_prefix_.assign(gpu_levels_ * cpu_slots_ * run, 0.0);
  energy_prefix_.assign(gpu_levels_ * cpu_slots_ * run, 0.0);

  // Layer-major fill: all level-dependent scalars are hoisted out of the
  // per-layer loop — the gpu voltage per gpu level and the cpu power per
  // cpu level (both read from PowerModel's per-level voltage tables, so no
  // pow at all), the occupancy pow per layer (inside
  // features.eff, extracted once per graph). The per-plane pass then runs
  // pure per-layer arithmetic through the kernel dispatch seam
  // (cost_plane_fill), and the serial prefix accumulation below adds the
  // SAME per-layer values in the SAME order as the per-cell evaluation, so
  // every prefix entry is bitwise identical to analytic_block_cost from
  // layer 0 (test-asserted).
  const PowerModel power(platform);
  const GpuSpec& gpu = platform.gpu;
  const CpuSpec& cpu = platform.cpu;
  std::vector<double> layer_time(num_layers_);
  std::vector<double> layer_energy(num_layers_);

  for (std::size_t g = 0; g < gpu_levels_; ++g) {
    const double gpu_f = platform.gpu_freq(g);
    const double v = power.gpu_voltage_at(g);
    linalg::kernels::CostPlaneTerms terms;
    // Same association as LatencyModel::peak_flops and
    // PowerModel::gpu_dynamic_w/gpu_static_w: the hoisted products are the
    // left-associative prefixes of the per-cell expressions.
    terms.peak = static_cast<double>(gpu.cuda_cores) *
                 gpu.flops_per_core_per_cycle * gpu_f;
    terms.dyn_coeff = gpu.c_eff * v * v * gpu_f;
    terms.static_w = gpu.static_w_per_volt * v;
    terms.stall = gpu.stall_activity;
    terms.mem_w = platform.mem.active_power_w;
    terms.base_w = platform.base_power_w;
    for (std::size_t c = 0; c < cpu_slot_.size(); ++c) {
      if (cpu_slot_[c] == kNoSlot) continue;
      const double cpu_f = platform.cpu_freq(c);
      terms.launch_s =
          cpu.launch_overhead_s * (cpu.freqs_hz.back() / cpu_f);
      terms.cpu_w = power.cpu_power_w_at(c, cpu_load);
      linalg::kernels::cost_plane_fill(
          num_layers_, features.flops.data(), features.eff.data(),
          features.memory_s.data(), features.active.data(), terms,
          layer_time.data(), layer_energy.data());

      const std::size_t base = (g * cpu_slots_ + cpu_slot_[c]) * run;
      double t = 0.0;
      double e = 0.0;
      for (std::size_t i = 0; i < num_layers_; ++i) {
        // Same accumulation as analytic_block_cost: kInput contributes 0.
        if (features.active[i]) {
          t += layer_time[i];
          e += layer_energy[i];
        }
        time_prefix_[base + i + 1] = t;
        energy_prefix_[base + i + 1] = e;
      }
    }
  }
}

CostTable CostTable::from_parts(std::size_t num_layers, std::size_t gpu_levels,
                                std::vector<std::size_t> cpu_slot,
                                std::size_t cpu_slots,
                                std::vector<double> time_prefix,
                                std::vector<double> energy_prefix) {
  if (gpu_levels == 0) {
    throw std::invalid_argument("CostTable: zero gpu levels");
  }
  if (cpu_slots == 0 || cpu_slots > cpu_slot.size()) {
    throw std::invalid_argument("CostTable: bad cpu slot count");
  }
  // Slot assignments must be a bijection onto [0, cpu_slots).
  std::vector<bool> seen(cpu_slots, false);
  std::size_t assigned = 0;
  for (const std::size_t s : cpu_slot) {
    if (s == kNoSlot) continue;
    if (s >= cpu_slots || seen[s]) {
      throw std::invalid_argument("CostTable: invalid cpu slot assignment");
    }
    seen[s] = true;
    ++assigned;
  }
  if (assigned != cpu_slots) {
    throw std::invalid_argument("CostTable: unassigned cpu slots");
  }
  // A forged num_layers of SIZE_MAX would wrap the run length to 0 and let
  // empty arrays pass as a table whose every query reads out of bounds.
  const std::size_t run = num_layers + 1;
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  if (run == 0 || cpu_slots > max / gpu_levels / run) {
    throw std::invalid_argument("CostTable: dimensions overflow");
  }
  const std::size_t expect = gpu_levels * cpu_slots * run;
  if (time_prefix.size() != expect || energy_prefix.size() != expect) {
    throw std::invalid_argument("CostTable: prefix array size mismatch");
  }
  CostTable t;
  t.num_layers_ = num_layers;
  t.gpu_levels_ = gpu_levels;
  t.cpu_slot_ = std::move(cpu_slot);
  t.cpu_slots_ = cpu_slots;
  t.time_prefix_ = std::move(time_prefix);
  t.energy_prefix_ = std::move(energy_prefix);
  return t;
}

CostTable::Raw CostTable::raw() const noexcept {
  Raw r;
  r.num_layers = num_layers_;
  r.gpu_levels = gpu_levels_;
  r.cpu_slot = cpu_slot_;
  r.cpu_slots = cpu_slots_;
  r.time_prefix = time_prefix_;
  r.energy_prefix = energy_prefix_;
  return r;
}

bool CostTable::has_cpu_level(std::size_t cpu_level) const noexcept {
  return cpu_level < cpu_slot_.size() && cpu_slot_[cpu_level] != kNoSlot;
}

std::size_t CostTable::plane(std::size_t gpu_level,
                             std::size_t cpu_level) const {
  if (gpu_level >= gpu_levels_) {
    throw std::out_of_range("CostTable: gpu level out of range");
  }
  if (!has_cpu_level(cpu_level)) {
    throw std::out_of_range("CostTable: cpu level not precomputed");
  }
  return gpu_level * cpu_slots_ + cpu_slot_[cpu_level];
}

BlockCost CostTable::block_cost(std::size_t begin, std::size_t end,
                                std::size_t gpu_level,
                                std::size_t cpu_level) const {
  if (begin > end || end > num_layers_) {
    throw std::out_of_range("CostTable: bad layer range");
  }
  const std::size_t base = plane(gpu_level, cpu_level) * (num_layers_ + 1);
  return {time_prefix_[base + end] - time_prefix_[base + begin],
          energy_prefix_[base + end] - energy_prefix_[base + begin]};
}

std::size_t CostTable::optimal_gpu_level(std::size_t begin, std::size_t end,
                                         std::size_t cpu_level) const {
  return optimal_gpu_level(begin, end, cpu_level, gpu_levels_ - 1);
}

std::size_t CostTable::optimal_gpu_level(std::size_t begin, std::size_t end,
                                         std::size_t cpu_level,
                                         std::size_t max_gpu_level) const {
  const std::size_t top = std::min(max_gpu_level, gpu_levels_ - 1);
  std::size_t best = 0;
  double best_energy = -1.0;
  for (std::size_t level = 0; level <= top; ++level) {
    const double e = block_cost(begin, end, level, cpu_level).energy_j;
    if (best_energy < 0.0 || e < best_energy) {
      best_energy = e;
      best = level;
    }
  }
  return best;
}

CostTable CostTable::scaled(double time_factor, double energy_factor) const {
  if (!std::isfinite(time_factor) || time_factor <= 0.0 ||
      !std::isfinite(energy_factor) || energy_factor <= 0.0) {
    throw std::invalid_argument("CostTable: scale factors must be positive");
  }
  CostTable t = *this;
  for (double& v : t.time_prefix_) v *= time_factor;
  for (double& v : t.energy_prefix_) v *= energy_factor;
  return t;
}

}  // namespace powerlens::hw
