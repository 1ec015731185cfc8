// Analytic power model for the simulated platforms.
//
// Board power decomposes into:
//   P = P_gpu_dyn(V, f, activity) + P_gpu_static(V)
//     + P_cpu_dyn + P_cpu_static
//     + P_mem(bandwidth utilization) + P_base
// with the classic CMOS dynamic term C_eff * V^2 * f * activity and a
// leakage term linear in V. The voltage/frequency curve interpolates
// between (f_min, V_min) and (f_max, V_max) with a configurable exponent —
// embedded GPU rails rise sharply near f_max, which is exactly the region
// DVFS exploits.
//
// Every caller on a ladder prices through the level-indexed forms
// (total_w_at, gpu_voltage_at, cpu_power_w_at): the constructor tabulates
// the voltage of every GPU and CPU ladder level once, so a simulator slice
// or a cost-table cell costs no std::pow. The tables hold exactly the values
// gpu_voltage/cpu_voltage return for the ladder frequencies, and both entry
// points evaluate one shared expression in one association, so
// total_w_at(g, c, a) == total_w(gpu_freq(g), cpu_freq(c), a) bit for bit
// (test-asserted for every level pair). The frequency overloads remain for
// off-ladder queries and as the tests' reference.
#pragma once

#include "hw/platform.hpp"

#include <vector>

namespace powerlens::hw {

// Instantaneous activity factors observed over a simulation slice.
struct ActivityState {
  double gpu_compute = 0.0;  // fraction of the slice the ALUs were busy
  double mem = 0.0;          // fraction of peak DRAM bandwidth in use
  double cpu = 0.0;          // host CPU load fraction
};

class PowerModel {
 public:
  // Tabulates the per-level voltages of `platform`'s ladders; the platform
  // must not change while the model is in use.
  explicit PowerModel(const Platform& platform);

  // GPU core voltage at a ladder frequency (interpolated for mid values).
  double gpu_voltage(double freq_hz) const noexcept;
  double cpu_voltage(double freq_hz) const noexcept;

  double gpu_dynamic_w(double freq_hz, double activity) const noexcept;
  double gpu_static_w(double freq_hz) const noexcept;
  double cpu_power_w(double freq_hz, double load) const noexcept;
  double mem_power_w(double bandwidth_fraction) const noexcept;

  // Total board power for a slice.
  double total_w(double gpu_freq_hz, double cpu_freq_hz,
                 const ActivityState& activity) const noexcept;

  // Level-indexed forms, read from the constructor's tables. Each equals
  // its frequency form at the ladder frequency, bit for bit. Throw
  // std::out_of_range on a level outside the ladder.
  double gpu_voltage_at(std::size_t gpu_level) const;
  double cpu_power_w_at(std::size_t cpu_level, double load) const;
  double total_w_at(std::size_t gpu_level, std::size_t cpu_level,
                    const ActivityState& activity) const;

  double base_power_w() const noexcept { return platform_->base_power_w; }

 private:
  static double interp_voltage(double freq_hz, double f_min, double f_max,
                               double v_min, double v_max,
                               double exponent) noexcept;
  // The shared expressions behind both entry points, from a voltage.
  double gpu_dynamic_from(double v, double freq_hz,
                          double activity) const noexcept;
  double gpu_static_from(double v) const noexcept;
  double cpu_power_from(double v, double freq_hz, double load) const noexcept;
  double total_from(double gpu_v, double gpu_freq_hz, double cpu_v,
                    double cpu_freq_hz,
                    const ActivityState& activity) const noexcept;

  const Platform* platform_;  // non-owning; Platform outlives the model
  std::vector<double> gpu_volts_;  // gpu_voltage(gpu_freq(level))
  std::vector<double> cpu_volts_;  // cpu_voltage(cpu_freq(level))
};

}  // namespace powerlens::hw
