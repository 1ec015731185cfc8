#include "hw/latency_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace powerlens::hw {

LatencyModel::LatencyModel(const Platform& platform) : platform_(&platform) {}

namespace {

// Occupancy factor: kernels over small output tensors cannot fill the SM
// array (tail effect), so their achieved FLOPs fall well below the
// streaming-kernel rate. Late CNN stages (7x7 feature maps) are the classic
// case — they end up compute-bound and favour higher clocks, while early
// high-resolution stages are bandwidth-bound and favour low ones.
double occupancy_factor(const dnn::Layer& layer) noexcept {
  constexpr double kSaturationElems = 4.0e5;
  const double elems = static_cast<double>(layer.output.elements());
  if (elems >= kSaturationElems) return 1.0;
  const double f = std::pow(elems / kSaturationElems, 0.3);
  return f < 0.45 ? 0.45 : f;
}

}  // namespace

double LatencyModel::compute_efficiency(const dnn::Layer& layer) noexcept {
  using dnn::OpType;
  double base;
  switch (layer.type) {
    case OpType::kConv2d:
      // Grouped/depthwise convolutions underutilize the SIMT lanes badly.
      if (layer.conv.groups > 1) {
        base = layer.conv.depthwise(layer.input.c) ? 0.12 : 0.30;
      } else {
        // 1x1 convolutions are GEMM-like; larger kernels stream better.
        base = layer.conv.kernel_h == 1 ? 0.50 : 0.55;
      }
      break;
    case OpType::kLinear:
      base = 0.65;
      break;
    case OpType::kMultiHeadAttention:
      base = 0.45;
      break;
    case OpType::kPatchEmbed:
      base = 0.50;
      break;
    case OpType::kInput:
      return 1.0;
    default:
      // Elementwise / pooling / normalization kernels are bandwidth-bound;
      // their tiny arithmetic runs far from peak.
      return 0.10;
  }
  return base * occupancy_factor(layer);
}

double LatencyModel::peak_flops(double gpu_freq_hz) const noexcept {
  return static_cast<double>(platform_->gpu.cuda_cores) *
         platform_->gpu.flops_per_core_per_cycle * gpu_freq_hz;
}

double LatencyModel::effective_bandwidth() const noexcept {
  return platform_->mem.bandwidth_bytes_per_s * platform_->mem.efficiency /
         platform_->mem.traffic_amplification;
}

double LatencyModel::knee_frequency(const dnn::Layer& layer) const noexcept {
  if (layer.flops <= 0) return 0.0;
  if (layer.mem_bytes <= 0) return std::numeric_limits<double>::infinity();
  const double eff = compute_efficiency(layer);
  const double per_hz = static_cast<double>(platform_->gpu.cuda_cores) *
                        platform_->gpu.flops_per_core_per_cycle * eff;
  const double t_mem =
      static_cast<double>(layer.mem_bytes) / effective_bandwidth();
  // compute time = flops / (per_hz * f) == t_mem  =>  f = flops/(per_hz*t_mem)
  return static_cast<double>(layer.flops) / (per_hz * t_mem);
}

LayerTiming LatencyModel::time_layer(const dnn::Layer& layer,
                                     double gpu_freq_hz,
                                     double cpu_freq_hz) const {
  return time_layer(layer, compute_efficiency(layer), gpu_freq_hz,
                    cpu_freq_hz);
}

LayerTiming LatencyModel::time_layer(const dnn::Layer& layer, double eff,
                                     double gpu_freq_hz,
                                     double cpu_freq_hz) const {
  LayerTiming t;
  if (layer.type == dnn::OpType::kInput) return t;

  t.compute_s = layer.flops > 0
                    ? static_cast<double>(layer.flops) /
                          (eff * peak_flops(gpu_freq_hz))
                    : 0.0;
  t.memory_s = layer.mem_bytes > 0
                   ? static_cast<double>(layer.mem_bytes) /
                         effective_bandwidth()
                   : 0.0;
  t.launch_s = platform_->cpu.launch_overhead_s *
               (platform_->cpu.freqs_hz.back() / cpu_freq_hz);

  const double kernel_s = std::max(t.compute_s, t.memory_s);
  t.total_s = kernel_s + t.launch_s;
  if (kernel_s > 0.0) {
    t.gpu_busy = kernel_s / t.total_s;
    // While the kernel is resident, dynamic activity is the ALU duty cycle
    // but never below the stall floor: a memory-stalled SM keeps its
    // schedulers, caches, and memory path toggling.
    const double duty = std::max(t.compute_s / kernel_s,
                                 platform_->gpu.stall_activity);
    t.gpu_activity = duty * t.gpu_busy;
    t.mem_activity = std::min(1.0, t.memory_s / kernel_s) * t.gpu_busy;
  }
  return t;
}

}  // namespace powerlens::hw
