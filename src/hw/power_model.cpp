#include "hw/power_model.hpp"

#include <algorithm>
#include <cmath>

namespace powerlens::hw {

PowerModel::PowerModel(const Platform& platform) : platform_(&platform) {
  gpu_volts_.reserve(platform.gpu.freqs_hz.size());
  for (const double f : platform.gpu.freqs_hz) {
    gpu_volts_.push_back(gpu_voltage(f));
  }
  cpu_volts_.reserve(platform.cpu.freqs_hz.size());
  for (const double f : platform.cpu.freqs_hz) {
    cpu_volts_.push_back(cpu_voltage(f));
  }
}

double PowerModel::interp_voltage(double freq_hz, double f_min, double f_max,
                                  double v_min, double v_max,
                                  double exponent) noexcept {
  const double t =
      std::clamp((freq_hz - f_min) / (f_max - f_min), 0.0, 1.0);
  return v_min + (v_max - v_min) * std::pow(t, exponent);
}

double PowerModel::gpu_voltage(double freq_hz) const noexcept {
  const GpuSpec& g = platform_->gpu;
  return interp_voltage(freq_hz, g.freqs_hz.front(), g.freqs_hz.back(),
                        g.v_min, g.v_max, g.v_exponent);
}

double PowerModel::cpu_voltage(double freq_hz) const noexcept {
  const CpuSpec& c = platform_->cpu;
  return interp_voltage(freq_hz, c.freqs_hz.front(), c.freqs_hz.back(),
                        c.v_min, c.v_max, 1.0);
}

double PowerModel::gpu_dynamic_from(double v, double freq_hz,
                                    double activity) const noexcept {
  return platform_->gpu.c_eff * v * v * freq_hz *
         std::clamp(activity, 0.0, 1.0);
}

double PowerModel::gpu_static_from(double v) const noexcept {
  return platform_->gpu.static_w_per_volt * v;
}

double PowerModel::cpu_power_from(double v, double freq_hz,
                                  double load) const noexcept {
  return platform_->cpu.c_eff * v * v * freq_hz *
             std::clamp(load, 0.0, 1.0) +
         platform_->cpu.static_w_per_volt * v;
}

double PowerModel::total_from(double gpu_v, double gpu_freq_hz, double cpu_v,
                              double cpu_freq_hz,
                              const ActivityState& activity) const noexcept {
  return gpu_dynamic_from(gpu_v, gpu_freq_hz, activity.gpu_compute) +
         gpu_static_from(gpu_v) +
         cpu_power_from(cpu_v, cpu_freq_hz, activity.cpu) +
         mem_power_w(activity.mem) + platform_->base_power_w;
}

double PowerModel::gpu_dynamic_w(double freq_hz,
                                 double activity) const noexcept {
  return gpu_dynamic_from(gpu_voltage(freq_hz), freq_hz, activity);
}

double PowerModel::gpu_static_w(double freq_hz) const noexcept {
  return gpu_static_from(gpu_voltage(freq_hz));
}

double PowerModel::cpu_power_w(double freq_hz, double load) const noexcept {
  return cpu_power_from(cpu_voltage(freq_hz), freq_hz, load);
}

double PowerModel::mem_power_w(double bandwidth_fraction) const noexcept {
  return platform_->mem.active_power_w *
         std::clamp(bandwidth_fraction, 0.0, 1.0);
}

double PowerModel::total_w(double gpu_freq_hz, double cpu_freq_hz,
                           const ActivityState& activity) const noexcept {
  return total_from(gpu_voltage(gpu_freq_hz), gpu_freq_hz,
                    cpu_voltage(cpu_freq_hz), cpu_freq_hz, activity);
}

// vector::at supplies the std::out_of_range for a level off the ladder. The
// checked reads come first, as separate statements: the ladder frequencies
// are indexed unchecked, and argument evaluation order is unspecified.
double PowerModel::gpu_voltage_at(std::size_t gpu_level) const {
  return gpu_volts_.at(gpu_level);
}

double PowerModel::cpu_power_w_at(std::size_t cpu_level, double load) const {
  const double cpu_v = cpu_volts_.at(cpu_level);
  return cpu_power_from(cpu_v, platform_->cpu.freqs_hz[cpu_level], load);
}

double PowerModel::total_w_at(std::size_t gpu_level, std::size_t cpu_level,
                              const ActivityState& activity) const {
  const double gpu_v = gpu_volts_.at(gpu_level);
  const double cpu_v = cpu_volts_.at(cpu_level);
  return total_from(gpu_v, platform_->gpu.freqs_hz[gpu_level], cpu_v,
                    platform_->cpu.freqs_hz[cpu_level], activity);
}

}  // namespace powerlens::hw
