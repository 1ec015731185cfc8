// Time-stepped execution engine for DNN inference on the simulated platform.
//
// The engine walks a Graph layer by layer, advancing a simulation clock in
// slices bounded by: the end of the current layer, the next reactive-governor
// sampling instant, and pending DVFS level changes taking effect. Within a
// slice the frequency pair is constant, so power integrates exactly. This is
// what lets reactive governors exhibit their real pathologies — response lag
// (a block transition is only noticed at the next sample) and ping-pong
// (oscillating between levels around a utilization threshold) — while
// PowerLens's preset schedule switches exactly at block boundaries.
#pragma once

#include "dnn/graph.hpp"
#include "hw/fault_hooks.hpp"
#include "hw/governor.hpp"
#include "hw/latency_model.hpp"
#include "hw/platform.hpp"
#include "hw/power_model.hpp"
#include "hw/telemetry.hpp"

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace powerlens::obs {
class TraceWriter;
}  // namespace powerlens::obs

namespace powerlens::hw {

struct WorkItem {
  const dnn::Graph* graph = nullptr;
  int passes = 1;  // forward passes; images = passes * batch
};

struct RunPolicy {
  // Reactive control; may be null. Decides GPU and/or CPU levels.
  Governor* governor = nullptr;
  // Preset GPU schedule (PowerLens / ablations); overrides any GPU decision
  // from `governor`. May be null.
  const PresetSchedule* schedule = nullptr;
  // Starting levels. Defaults (set by SimEngine::default_policy) are the
  // maximum levels, matching MAXN boot state.
  std::size_t initial_gpu_level = 0;
  std::size_t initial_cpu_level = 0;
  // Mean host load fraction across all cores while inference runs (feeds
  // CPU power).
  double cpu_load = 0.2;
  // Host-side gap between forward passes (next-batch preparation, result
  // copy). The GPU idles here — precisely the utilization dip that makes
  // reactive governors oscillate (Figure 1(A)): ondemand scales down in the
  // gap, then lags through the start of the next pass.
  double inter_pass_gap_s = 0.010;
  // Busy fraction of the kernel-launching thread at maximum CPU frequency.
  // The launcher's work is fixed cycles, so its busy fraction scales as
  // f_max/f — and it is the *per-core peak* load that cpufreq governors see,
  // which is why ondemand keeps the CPU clock high during inference.
  double launcher_load = 0.6;
  // Trace sink for this run; null means the process-wide obs::default_trace()
  // (a no-op unless someone enabled it). Emission reads the simulated clock
  // but never advances it, so results are identical with tracing on or off.
  obs::TraceWriter* trace = nullptr;
  // Label for this run's process track in the trace viewer (e.g. the
  // governor/method name). Must outlive the run.
  const char* trace_label = nullptr;
  // Hardware fault model for this run; null means fault-free. One instance
  // per run (its sticky/thermal state tracks this run's clock); the engine
  // reports the per-run fault delta in ExecutionResult::faults.
  FaultModel* faults = nullptr;
};

struct FreqTracePoint {
  double time_s = 0.0;
  std::size_t gpu_level = 0;
};

// Cumulative run totals at the instant a work item completes. Consecutive
// marks difference into exact per-item accounting, which is how the serving
// layer attributes latency/energy to individual requests of a continuous
// reactive-governor run without perturbing it.
struct WorkItemMark {
  double end_time_s = 0.0;
  double end_energy_j = 0.0;
  std::int64_t end_images = 0;
  std::size_t end_transitions = 0;
};

struct ExecutionResult {
  double time_s = 0.0;
  double energy_j = 0.0;
  std::int64_t images = 0;
  std::size_t dvfs_transitions = 0;
  // Cumulative host-stall time paid on GPU DVFS transitions (Table 3
  // overhead accounting): dvfs_transitions * Platform::dvfs.stall_s, already
  // included in time_s.
  double dvfs_stall_s = 0.0;
  // Telemetry's exact power integral, including slivers the sampling
  // windows drop; equals energy_j bit for bit (conservation invariant).
  double telemetry_energy_j = 0.0;
  // Telemetry-rail view of the run: sample mean and maximum (0 when every
  // sample was dropped). The serving layer's journal/residual accounting
  // reads these instead of re-deriving them from power_samples.
  double telemetry_mean_power_w = 0.0;
  double telemetry_peak_power_w = 0.0;
  // Faults injected during this run (zero when RunPolicy::faults is null).
  FaultCounters faults;
  // Time spent with the GPU ladder thermally capped below the requested
  // level, already included in time_s.
  double thermal_throttled_s = 0.0;
  std::vector<FreqTracePoint> gpu_trace;  // level changes (incl. initial)
  std::vector<PowerSample> power_samples; // tegrastats-style trace
  std::vector<WorkItemMark> item_marks;   // one per work item, in order

  double avg_power_w() const noexcept {
    return time_s > 0.0 ? energy_j / time_s : 0.0;
  }
  double fps() const noexcept {
    return time_s > 0.0 ? static_cast<double>(images) / time_s : 0.0;
  }
  // The paper's metric (eq. 1): images per joule.
  double energy_efficiency() const noexcept {
    return energy_j > 0.0 ? static_cast<double>(images) / energy_j : 0.0;
  }
};

// Adds one run to the process-wide powerlens_sim_* counters (runs, images,
// energy, simulated time, DVFS transitions and stall). Every SimEngine run
// calls it once; a caller that reuses the summary of an identical earlier
// run instead of simulating again calls it so the exports still count the
// run.
void record_run_metrics(const ExecutionResult& r);

// One engine per thread: runs share engine-owned scratch (the slice prices),
// so concurrent runs on one engine race. Each run starts from fresh state,
// so a reused engine returns the same bits as a new one.
class SimEngine {
 public:
  explicit SimEngine(const Platform& platform);

  // A policy starting from MAXN state (both ladders at maximum).
  RunPolicy default_policy() const noexcept;

  // Runs `passes` forward passes of one graph.
  ExecutionResult run(const dnn::Graph& graph, int passes,
                      const RunPolicy& policy);

  // Runs a task flow of multiple items back to back (Figure 5 workload).
  ExecutionResult run_workload(std::span<const WorkItem> items,
                               const RunPolicy& policy);

  const Platform& platform() const noexcept { return *platform_; }

 private:
  struct State;
  // What a slice of one layer costs at one (effective GPU, CPU) level pair
  // under one run's policy: the layer's unscaled duration, its GPU busy
  // fraction, launcher-thread load, activity factors and power draw. The
  // level pair is the key; kNoLevel matches no pair. `eff` is the layer's
  // LatencyModel::compute_efficiency, which no level changes.
  struct SlicePrice {
    static constexpr std::size_t kNoLevel =
        std::numeric_limits<std::size_t>::max();
    std::size_t gpu_level = kNoLevel;
    std::size_t cpu_level = kNoLevel;
    double eff = 0.0;
    double total_s = 0.0;
    double gpu_busy = 0.0;
    double launcher = 0.0;
    ActivityState activity;
    double power_w = 0.0;
  };
  void execute_graph(const dnn::Graph& graph, int passes,
                     const RunPolicy& policy, State& st);
  // Charges `dt` seconds at power `p` to the run and the governor window.
  void advance(State& st, double dt, double p, const ActivityState& activity,
               double gpu_busy);
  // Requested level clamped by the thermal cap currently in force.
  std::size_t effective_gpu_level(const State& st) const noexcept;
  // Re-queries the fault model once the cached thermal window expires.
  void refresh_thermal(State& st);
  void request_gpu_level(State& st, std::size_t level);
  void request_cpu_level(State& st, std::size_t level);
  void apply_pending(State& st);
  void governor_sample(State& st, const RunPolicy& policy);

  const Platform* platform_;  // non-owning
  LatencyModel latency_;
  PowerModel power_;
  // Slice price of each layer of the graph execute_graph is running, at the
  // level pair it was last priced for; reset per execute_graph call, the
  // capacity reused across work items and runs.
  std::vector<SlicePrice> prices_;
};

}  // namespace powerlens::hw
