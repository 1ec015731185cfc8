// Roofline latency model for DNN operators on the simulated GPU.
//
// Each layer's execution time at GPU frequency f is
//   t(f) = max(flops / (eff_op * peak_flops(f)),  bytes / (eff_mem * BW))
//        + launch_overhead(f_cpu)
// The compute term scales with the clock; the memory term does not. A layer
// is therefore memory-bound above its "knee" frequency, which is precisely
// what makes low frequencies energy-optimal for memory-bound blocks and
// higher frequencies right for compute-bound ones — the physics PowerLens's
// per-block decisions exploit (paper section 2.1.4).
#pragma once

#include "dnn/layer.hpp"
#include "hw/platform.hpp"

namespace powerlens::hw {

// Timing breakdown of one layer at a fixed frequency pair.
struct LayerTiming {
  double compute_s = 0.0;  // pure ALU time at the given GPU frequency
  double memory_s = 0.0;   // pure DRAM time (frequency independent)
  double launch_s = 0.0;   // host-side kernel launch overhead
  double total_s = 0.0;    // max(compute, memory) + launch

  // Fraction of the execution window the ALUs are busy; drives dynamic power.
  double gpu_activity = 0.0;
  // Fraction of the window a kernel is resident on the GPU. This is what
  // sysfs "load" counters (and thus ondemand/podgov) observe: a GPU stalled
  // on DRAM still counts as busy. Memory-bound kernels therefore look
  // fully loaded to reactive governors — the reason MAXN ondemand pins the
  // maximum frequency even when it buys no throughput.
  double gpu_busy = 0.0;
  // Fraction of peak DRAM bandwidth in use.
  double mem_activity = 0.0;
};

class LatencyModel {
 public:
  explicit LatencyModel(const Platform& platform);

  // Achievable fraction of peak FLOPs for an operator type (kernel
  // efficiency: dense convolutions stream well, depthwise/grouped ones and
  // elementwise kernels do not).
  static double compute_efficiency(const dnn::Layer& layer) noexcept;

  LayerTiming time_layer(const dnn::Layer& layer, double gpu_freq_hz,
                         double cpu_freq_hz) const;
  // The same timing with `eff` = compute_efficiency(layer) supplied by a
  // caller that times one layer many times (the simulator's slices).
  LayerTiming time_layer(const dnn::Layer& layer, double eff,
                         double gpu_freq_hz, double cpu_freq_hz) const;

  // Peak arithmetic throughput at a frequency, FLOPs/s.
  double peak_flops(double gpu_freq_hz) const noexcept;
  // Effective DRAM bandwidth, bytes/s.
  double effective_bandwidth() const noexcept;

  // The frequency above which this layer is memory-bound (its compute time
  // drops below its memory time). Returns +inf for pure-compute layers that
  // never saturate, 0 for zero-flop layers.
  double knee_frequency(const dnn::Layer& layer) const noexcept;

 private:
  const Platform* platform_;  // non-owning
};

}  // namespace powerlens::hw
