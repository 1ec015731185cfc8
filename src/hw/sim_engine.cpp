#include "hw/sim_engine.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace powerlens::hw {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Guard against zero-length slices looping forever on FP round-off.
constexpr double kMinSlice = 1e-12;

// Fault accounting handles, each resolved once (function-local statics, as
// in serve/plan_cache.cpp) on the first run that records it: a process that
// never simulates a faulty run exports no fault counters.
void record_fault_metrics(const ExecutionResult& r) {
  obs::MetricsRegistry& m = obs::global_metrics();
  static obs::Counter& dvfs_failed =
      m.counter("powerlens_fault_dvfs_failed_total",
                "GPU DVFS transition requests that failed to actuate");
  static obs::Counter& thermal_events =
      m.counter("powerlens_fault_thermal_events_total",
                "thermal throttle windows entered");
  static obs::Counter& telemetry_dropped =
      m.counter("powerlens_fault_telemetry_dropped_total",
                "telemetry samples dropped from the stream");
  static obs::Counter& latency_inflated =
      m.counter("powerlens_fault_latency_inflated_total",
                "layers hit by transient latency inflation");
  static obs::Counter& throttled_s =
      m.counter("powerlens_fault_thermal_throttled_seconds_total",
                "simulated time spent thermally capped");
  dvfs_failed.inc(static_cast<double>(r.faults.dvfs_failed));
  thermal_events.inc(static_cast<double>(r.faults.thermal_events));
  telemetry_dropped.inc(static_cast<double>(r.faults.telemetry_dropped));
  latency_inflated.inc(static_cast<double>(r.faults.latency_inflated));
  throttled_s.inc(r.thermal_throttled_s);
}

// Virtual-track layout of one simulator run in the trace. Each run claims a
// fresh pid, and each tid's timestamps are non-decreasing by construction
// (simulated time only moves forward within a run).
constexpr int kLayersTid = 0;    // per-layer / pass / gap B-E spans
constexpr int kDvfsTid = 1;      // transition instants + level counters
constexpr int kGovernorTid = 2;  // sampling-decision instants
constexpr int kPowerTid = 3;     // tegrastats-style power counter track

constexpr double kUsPerS = 1e6;

}  // namespace

// Run accounting handles, each resolved once (function-local statics) on
// the first run that records it.
void record_run_metrics(const ExecutionResult& r) {
  obs::MetricsRegistry& m = obs::global_metrics();
  static obs::Counter& runs =
      m.counter("powerlens_sim_runs_total", "simulator runs");
  static obs::Counter& images =
      m.counter("powerlens_sim_images_total", "images inferred in simulation");
  static obs::Counter& energy_j = m.counter(
      "powerlens_sim_energy_joules_total", "simulated energy consumed");
  static obs::Counter& time_s =
      m.counter("powerlens_sim_time_seconds_total", "simulated time elapsed");
  static obs::Counter& transitions = m.counter(
      "powerlens_sim_dvfs_transitions_total", "GPU DVFS transitions applied");
  static obs::Counter& stall_s =
      m.counter("powerlens_sim_dvfs_stall_seconds_total",
                "host stall paid on DVFS transitions");
  runs.inc();
  images.inc(static_cast<double>(r.images));
  energy_j.inc(r.energy_j);
  time_s.inc(r.time_s);
  transitions.inc(static_cast<double>(r.dvfs_transitions));
  stall_s.inc(r.dvfs_stall_s);
}

struct SimEngine::State {
  double time = 0.0;
  double energy = 0.0;
  std::int64_t images = 0;
  std::size_t transitions = 0;
  double stall_time = 0.0;  // cumulative DVFS host-stall seconds

  // Trace sink for this run; null when tracing is disabled, so every
  // emission site is a single pointer test on the hot path.
  obs::TraceWriter* tw = nullptr;
  int trace_pid = 0;

  std::size_t gpu_level = 0;       // effective level
  std::size_t cpu_level = 0;
  std::size_t gpu_pending = 0;     // target of an in-flight change
  double gpu_pending_at = kInf;    // effect time (kInf = none)
  std::size_t cpu_pending = 0;
  double cpu_pending_at = kInf;

  // Governor accumulators over the current sampling window.
  double win_start = 0.0;
  double win_gpu_util = 0.0;   // integral of busy-fraction dt
  double win_gpu_compute = 0.0;  // integral of ALU-activity dt
  double win_mem_util = 0.0;
  double win_cpu_util = 0.0;
  double win_cpu_peak = 0.0;   // integral of launcher-thread load dt
  double win_energy = 0.0;
  std::int64_t win_images = 0;
  double next_sample_at = kInf;

  double cpu_load = 0.2;

  // Fault model for this run (null = fault-free) and its decision indices.
  FaultModel* faults = nullptr;
  std::size_t dvfs_request_index = 0;
  std::size_t layer_ordinal = 0;
  // Thermal cap currently in force and the earliest time it may change;
  // -inf forces a query at the first slice.
  std::size_t thermal_levels_off = 0;
  double thermal_until = -kInf;
  double throttled_s = 0.0;  // time with effective level below requested

  std::vector<FreqTracePoint> trace;
  Telemetry telemetry{0.05};
};

SimEngine::SimEngine(const Platform& platform)
    : platform_(&platform), latency_(platform), power_(platform) {
  platform.validate();
}

RunPolicy SimEngine::default_policy() const noexcept {
  RunPolicy p;
  p.initial_gpu_level = platform_->max_gpu_level();
  p.initial_cpu_level = platform_->max_cpu_level();
  return p;
}

std::size_t SimEngine::effective_gpu_level(const State& st) const noexcept {
  if (st.thermal_levels_off == 0) return st.gpu_level;
  const std::size_t max = platform_->max_gpu_level();
  const std::size_t cap =
      st.thermal_levels_off >= max ? 0 : max - st.thermal_levels_off;
  return st.gpu_level < cap ? st.gpu_level : cap;
}

void SimEngine::refresh_thermal(State& st) {
  if (st.faults == nullptr || st.time < st.thermal_until) return;
  const ThermalState ts = st.faults->thermal_at(st.time);
  if (st.tw != nullptr && ts.levels_off != st.thermal_levels_off) {
    st.tw->counter(st.trace_pid, kDvfsTid, st.time * kUsPerS,
                   "thermal_levels_off", static_cast<double>(ts.levels_off));
  }
  st.thermal_levels_off = ts.levels_off;
  st.thermal_until = ts.until_s;
}

void SimEngine::advance(State& st, double dt, double p,
                        const ActivityState& activity, double gpu_busy) {
  if (dt <= 0.0) return;
  if (effective_gpu_level(st) < st.gpu_level) st.throttled_s += dt;
  st.energy += p * dt;
  st.telemetry.record_slice(st.time, dt, p);
  st.win_gpu_util += gpu_busy * dt;
  st.win_gpu_compute += activity.gpu_compute * dt;
  st.win_mem_util += activity.mem * dt;
  st.win_cpu_util += activity.cpu * dt;
  st.win_energy += p * dt;
  st.time += dt;
}

void SimEngine::request_gpu_level(State& st, std::size_t level) {
  if (level >= platform_->gpu_levels()) {
    throw std::out_of_range("SimEngine: gpu level out of range");
  }
  const std::size_t target =
      st.gpu_pending_at < kInf ? st.gpu_pending : st.gpu_level;
  if (level == target) return;

  ++st.transitions;
  if (st.tw != nullptr) {
    st.tw->instant_at(st.trace_pid, kDvfsTid, st.time * kUsPerS,
                      "dvfs_request", "dvfs",
                      {obs::TraceArg::num("from", static_cast<double>(target)),
                       obs::TraceArg::num("to", static_cast<double>(level))});
  }
  // The host blocks while the clock request goes through the driver; no
  // forward progress, near-idle GPU activity.
  const ActivityState stalled{0.0, 0.0, st.cpu_load};
  advance(st, platform_->dvfs.stall_s,
          power_.total_w_at(effective_gpu_level(st), st.cpu_level, stalled),
          stalled, /*gpu_busy=*/0.0);
  st.stall_time += platform_->dvfs.stall_s;
  if (st.tw != nullptr) {
    st.tw->counter(st.trace_pid, kDvfsTid, st.time * kUsPerS,
                   "dvfs_transitions", static_cast<double>(st.transitions));
    st.tw->counter(st.trace_pid, kDvfsTid, st.time * kUsPerS, "dvfs_stall_ms",
                   st.stall_time * 1e3);
  }
  if (st.faults != nullptr &&
      st.faults->dvfs_request_fails(st.dvfs_request_index++, st.time)) {
    // Actuation failed: the driver stall was paid, but the clock keeps its
    // old frequency and no pending change is scheduled. A later request for
    // the same level is not deduplicated (the target never moved), so
    // callers naturally retry.
    if (st.tw != nullptr) {
      st.tw->instant_at(st.trace_pid, kDvfsTid, st.time * kUsPerS,
                        "dvfs_fault", "dvfs",
                        {obs::TraceArg::num("to", static_cast<double>(level))});
    }
    return;
  }
  st.gpu_pending = level;
  st.gpu_pending_at = st.time + platform_->dvfs.latency_s;
}

void SimEngine::request_cpu_level(State& st, std::size_t level) {
  if (level >= platform_->cpu_levels()) {
    throw std::out_of_range("SimEngine: cpu level out of range");
  }
  const std::size_t target =
      st.cpu_pending_at < kInf ? st.cpu_pending : st.cpu_level;
  if (level == target) return;
  // CPU cpufreq switches are cheap relative to the GPU path; effect-only.
  st.cpu_pending = level;
  st.cpu_pending_at = st.time + 1e-3;
}

void SimEngine::apply_pending(State& st) {
  if (st.time >= st.gpu_pending_at) {
    st.gpu_level = st.gpu_pending;
    st.gpu_pending_at = kInf;
    st.trace.push_back({st.time, st.gpu_level});
    if (st.tw != nullptr) {
      st.tw->counter(st.trace_pid, kDvfsTid, st.time * kUsPerS, "gpu_level",
                     static_cast<double>(st.gpu_level));
    }
  }
  if (st.time >= st.cpu_pending_at) {
    st.cpu_level = st.cpu_pending;
    st.cpu_pending_at = kInf;
    if (st.tw != nullptr) {
      st.tw->counter(st.trace_pid, kDvfsTid, st.time * kUsPerS, "cpu_level",
                     static_cast<double>(st.cpu_level));
    }
  }
}

void SimEngine::governor_sample(State& st, const RunPolicy& policy) {
  const double window = st.time - st.win_start;
  GovernorSample s;
  s.time_s = st.time;
  s.window_s = window;
  if (window > 0.0) {
    s.gpu_util = st.win_gpu_util / window;
    s.gpu_compute_util = st.win_gpu_compute / window;
    s.mem_util = st.win_mem_util / window;
    // Governors see the busiest core, cpufreq-style.
    s.cpu_util = st.win_cpu_peak / window;
    s.power_w = st.win_energy / window;
    s.throughput = static_cast<double>(st.win_images) / window;
  }
  s.gpu_level = st.gpu_level;
  s.cpu_level = st.cpu_level;

  const GovernorDecision d = policy.governor->on_sample(s);
  if (st.tw != nullptr) {
    st.tw->instant_at(
        st.trace_pid, kGovernorTid, st.time * kUsPerS, "governor_sample",
        "governor",
        {obs::TraceArg::num("gpu_util", s.gpu_util),
         obs::TraceArg::num("cpu_util", s.cpu_util),
         obs::TraceArg::num("power_w", s.power_w),
         obs::TraceArg::num("gpu_decision",
                            d.gpu_level ? static_cast<double>(*d.gpu_level)
                                        : -1.0),
         obs::TraceArg::num("cpu_decision",
                            d.cpu_level ? static_cast<double>(*d.cpu_level)
                                        : -1.0)});
  }
  // Preset schedules own the GPU ladder; a concurrent reactive governor may
  // still drive the CPU (the paper's deployments keep CPU ondemand).
  if (d.gpu_level && policy.schedule == nullptr) {
    request_gpu_level(st, *d.gpu_level);
  }
  if (d.cpu_level) request_cpu_level(st, *d.cpu_level);

  st.win_start = st.time;
  st.win_gpu_util = 0.0;
  st.win_gpu_compute = 0.0;
  st.win_mem_util = 0.0;
  st.win_cpu_util = 0.0;
  st.win_cpu_peak = 0.0;
  st.win_energy = 0.0;
  st.win_images = 0;
  st.next_sample_at = st.time + policy.governor->sample_period_s();
}

void SimEngine::execute_graph(const dnn::Graph& graph, int passes,
                              const RunPolicy& policy, State& st) {
  if (passes <= 0) throw std::invalid_argument("SimEngine: passes <= 0");
  // Reset the slice prices. A slice's price depends only on its layer, the
  // (effective GPU, CPU) level pair and the policy's constant loads, so a
  // layer is priced once in the first pass and again only where a
  // transition or a thermal cap gives it another pair. Its compute
  // efficiency (the occupancy std::pow) depends on no level, so it is taken
  // here, once per call, and not on the miss path, which hill-climbing
  // governors take on most slices.
  prices_.resize(graph.size());
  for (std::size_t i = 0; i < graph.size(); ++i) {
    prices_[i].eff = LatencyModel::compute_efficiency(graph.layer(i));
    prices_[i].gpu_level = SlicePrice::kNoLevel;
  }

  for (int pass = 0; pass < passes; ++pass) {
    if (st.tw != nullptr) {
      st.tw->begin_at(st.trace_pid, kLayersTid, st.time * kUsPerS, "pass",
                      "sim",
                      {obs::TraceArg::num("pass", static_cast<double>(pass)),
                       obs::TraceArg::str("graph", graph.name())});
    }
    for (std::size_t i = 0; i < graph.size(); ++i) {
      if (policy.schedule != nullptr) {
        if (const auto level = policy.schedule->level_at(i)) {
          request_gpu_level(st, *level);
        }
        if (const auto cpu = policy.schedule->cpu_level_at(i)) {
          request_cpu_level(st, *cpu);
        }
      }
      const dnn::Layer& layer = graph.layer(i);
      if (layer.type == dnn::OpType::kInput) continue;

      if (st.tw != nullptr) {
        st.tw->begin_at(
            st.trace_pid, kLayersTid, st.time * kUsPerS,
            dnn::op_name(layer.type), "layer",
            {obs::TraceArg::num("layer", static_cast<double>(i)),
             obs::TraceArg::num("gpu_level",
                                static_cast<double>(st.gpu_level))});
      }
      // One latency-inflation draw per executed layer; the factor applies
      // to the whole layer however many slices it ends up cut into.
      double lat_factor = 1.0;
      if (st.faults != nullptr) {
        lat_factor = st.faults->layer_latency_factor(st.layer_ordinal++);
      }
      double remaining = 1.0;  // fraction of the layer still to execute
      while (remaining > kMinSlice) {
        apply_pending(st);
        refresh_thermal(st);
        const std::size_t gpu_eff = effective_gpu_level(st);
        SlicePrice& sp = prices_[i];
        if (sp.gpu_level != gpu_eff || sp.cpu_level != st.cpu_level) {
          const LayerTiming t = latency_.time_layer(
              layer, sp.eff, platform_->gpu_freq(gpu_eff),
              platform_->cpu_freq(st.cpu_level));
          sp.gpu_level = gpu_eff;
          sp.cpu_level = st.cpu_level;
          sp.total_s = t.total_s;
          sp.gpu_busy = t.gpu_busy;
          // Launcher-thread load is work-conserving: fixed cycles per
          // second of inference, so its busy fraction rises as the CPU
          // slows. The average load (for power) spreads it over the cores.
          sp.launcher = std::min(1.0, policy.launcher_load *
                                          platform_->cpu.freqs_hz.back() /
                                          platform_->cpu_freq(st.cpu_level));
          const double cpu_act = std::min(
              1.0, policy.cpu_load + sp.launcher / static_cast<double>(
                                                       platform_->cpu.cores));
          sp.activity = ActivityState{t.gpu_activity, t.mem_activity, cpu_act};
          sp.power_w = power_.total_w_at(gpu_eff, st.cpu_level, sp.activity);
        }
        if (sp.total_s <= 0.0) break;
        const double total_s = sp.total_s * lat_factor;

        const double layer_dt = remaining * total_s;
        double dt = layer_dt;
        dt = std::min(dt, st.gpu_pending_at - st.time);
        dt = std::min(dt, st.cpu_pending_at - st.time);
        dt = std::min(dt, st.next_sample_at - st.time);
        if (st.faults != nullptr) {
          dt = std::min(dt, st.thermal_until - st.time);
        }
        dt = std::max(dt, kMinSlice);

        st.win_cpu_peak += sp.launcher * dt;
        advance(st, dt, sp.power_w, sp.activity, sp.gpu_busy);
        remaining -= dt / total_s;

        apply_pending(st);
        if (policy.governor != nullptr && st.time >= st.next_sample_at) {
          governor_sample(st, policy);
        }
      }
      if (st.tw != nullptr) {
        st.tw->end_at(st.trace_pid, kLayersTid, st.time * kUsPerS,
                      dnn::op_name(layer.type), "layer");
      }
    }
    st.images += graph.batch_size();
    st.win_images += graph.batch_size();

    // Host-side inter-pass gap: GPU idle, launcher busy preparing the next
    // batch. Sliced against governor sampling so the utilization dip is
    // observable.
    if (st.tw != nullptr && policy.inter_pass_gap_s > kMinSlice) {
      st.tw->begin_at(st.trace_pid, kLayersTid, st.time * kUsPerS,
                      "inter_pass_gap", "sim");
    }
    double gap = policy.inter_pass_gap_s;
    while (gap > kMinSlice) {
      apply_pending(st);
      refresh_thermal(st);
      double dt = gap;
      dt = std::min(dt, st.gpu_pending_at - st.time);
      dt = std::min(dt, st.cpu_pending_at - st.time);
      dt = std::min(dt, st.next_sample_at - st.time);
      if (st.faults != nullptr) {
        dt = std::min(dt, st.thermal_until - st.time);
      }
      dt = std::max(dt, kMinSlice);
      const double cpu_act = std::min(
          1.0, policy.cpu_load +
                   policy.launcher_load /
                       static_cast<double>(platform_->cpu.cores));
      st.win_cpu_peak += policy.launcher_load * dt;
      const ActivityState idle{0.0, 0.0, cpu_act};
      advance(st, dt,
              power_.total_w_at(effective_gpu_level(st), st.cpu_level, idle),
              idle, /*gpu_busy=*/0.0);
      gap -= dt;
      apply_pending(st);
      if (policy.governor != nullptr && st.time >= st.next_sample_at) {
        governor_sample(st, policy);
      }
    }
    if (st.tw != nullptr && policy.inter_pass_gap_s > kMinSlice) {
      st.tw->end_at(st.trace_pid, kLayersTid, st.time * kUsPerS,
                    "inter_pass_gap", "sim");
    }
    if (st.tw != nullptr) {
      st.tw->end_at(st.trace_pid, kLayersTid, st.time * kUsPerS, "pass",
                    "sim");
    }
  }
}

ExecutionResult SimEngine::run(const dnn::Graph& graph, int passes,
                               const RunPolicy& policy) {
  const WorkItem item{&graph, passes};
  return run_workload(std::span<const WorkItem>{&item, 1}, policy);
}

ExecutionResult SimEngine::run_workload(std::span<const WorkItem> items,
                                        const RunPolicy& policy) {
  State st;
  st.cpu_load = policy.cpu_load;
  st.gpu_level = policy.initial_gpu_level;
  st.cpu_level = policy.initial_cpu_level;
  st.telemetry = Telemetry(platform_->telemetry_period_s);
  st.faults = policy.faults;
  if (policy.faults != nullptr) {
    st.telemetry.set_fault_model(policy.faults);
  }
  // Snapshot so the result reports this run's delta even if the caller
  // (incorrectly) reuses a fault model across runs.
  const FaultCounters faults_before =
      policy.faults != nullptr ? policy.faults->counters() : FaultCounters{};
  st.trace.push_back({0.0, st.gpu_level});

  obs::TraceWriter& tw =
      policy.trace != nullptr ? *policy.trace : obs::default_trace();
  if (tw.enabled()) {
    st.tw = &tw;
    st.trace_pid = tw.next_virtual_pid();
    std::string label = "sim " + platform_->name;
    if (policy.trace_label != nullptr) {
      label += " (";
      label += policy.trace_label;
      label += ")";
    }
    tw.name_process(st.trace_pid, label);
    tw.name_thread(st.trace_pid, kLayersTid, "layers");
    tw.name_thread(st.trace_pid, kDvfsTid, "dvfs");
    tw.name_thread(st.trace_pid, kGovernorTid, "governor");
    tw.name_thread(st.trace_pid, kPowerTid, "power");
    tw.counter(st.trace_pid, kDvfsTid, 0.0, "gpu_level",
               static_cast<double>(st.gpu_level));
    tw.counter(st.trace_pid, kDvfsTid, 0.0, "cpu_level",
               static_cast<double>(st.cpu_level));
  }

  if (policy.governor != nullptr) {
    policy.governor->reset(*platform_);
    st.next_sample_at = policy.governor->sample_period_s();
  }

  std::vector<WorkItemMark> item_marks;
  item_marks.reserve(items.size());
  for (const WorkItem& item : items) {
    if (item.graph == nullptr) {
      throw std::invalid_argument("SimEngine: null graph in workload");
    }
    execute_graph(*item.graph, item.passes, policy, st);
    item_marks.push_back({st.time, st.energy, st.images, st.transitions});
  }
  st.telemetry.finish(st.time);

  // The power-rail counter track mirrors the tegrastats trace: one counter
  // point per telemetry sample, on its own tid so timestamps stay monotone.
  if (st.tw != nullptr) {
    for (const PowerSample& s : st.telemetry.samples()) {
      st.tw->counter(st.trace_pid, kPowerTid, s.time_s * kUsPerS, "power_w",
                     s.power_w);
    }
  }

  ExecutionResult r;
  r.time_s = st.time;
  r.energy_j = st.energy;
  r.images = st.images;
  r.dvfs_transitions = st.transitions;
  r.dvfs_stall_s = st.stall_time;
  r.telemetry_energy_j = st.telemetry.total_energy_j();
  r.telemetry_mean_power_w = st.telemetry.mean_power_w();
  r.telemetry_peak_power_w = st.telemetry.peak_power_w();
  r.thermal_throttled_s = st.throttled_s;
  if (policy.faults != nullptr) {
    const FaultCounters& after = policy.faults->counters();
    r.faults.dvfs_failed = after.dvfs_failed - faults_before.dvfs_failed;
    r.faults.thermal_events =
        after.thermal_events - faults_before.thermal_events;
    r.faults.telemetry_dropped =
        after.telemetry_dropped - faults_before.telemetry_dropped;
    r.faults.latency_inflated =
        after.latency_inflated - faults_before.latency_inflated;
  }
  r.gpu_trace = std::move(st.trace);
  r.power_samples.assign(st.telemetry.samples().begin(),
                         st.telemetry.samples().end());
  r.item_marks = std::move(item_marks);

  // Aggregate run accounting in the global registry — handles resolved on
  // first use, nothing on the simulation hot path.
  record_run_metrics(r);
  if (policy.faults != nullptr) record_fault_metrics(r);
  return r;
}

}  // namespace powerlens::hw
