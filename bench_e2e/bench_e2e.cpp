// bench_e2e: end-to-end benchmark of the PowerLens serving system.
//
//   bench_e2e --workload <name> [--seed <n>] [--seconds <s>]
//             [--trace <file>] [--workdir <dir>] [--smoke]
//
// Workloads: steady_zoo, cold_admit, fault_adapt, policy_sweep (see
// e2e_workloads.hpp and README.md). Without --trace the run measures the
// end-to-end metrics: it sets up several times (setup_s is the median),
// serves one untimed warm-up rep, then times reps of identical work for
// --seconds (and at least 100 reps) with single-caller plan-latency calls in
// between, and afterwards serves untimed streams for the simulated outcomes:
// energy efficiency, its ratio to each baseline policy, and latency. The
// wall-clock metrics are scaled to reference-host time by a host-speed probe
// timed between set-ups and reps (HostProbe). With
// --trace the run replays the same work layer by layer instead
// (layer_replay.cpp), writes a Chrome trace, and reports the per-layer
// metrics.
//
// Every metric prints by name with its unit; the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Correctness
// checks print as CHECK lines, and the exit code is non-zero if any failed.
#include "e2e_workloads.hpp"
#include "layer_replay.hpp"

#include "obs/log.hpp"
#include "obs/residuals.hpp"
#include "obs/trace.hpp"
#include "serve/signature.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace powerlens::bench::e2e {
namespace {

struct Options {
  Workload workload = Workload::kSteadyZoo;
  std::uint64_t seed = 7;
  double seconds = 15.0;
  std::string trace_path;  // non-empty: traced layer replay
  std::string workdir = ".";
  bool smoke = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <steady_zoo|cold_admit|"
               "fault_adapt|policy_sweep> [--seed <n>] [--seconds <s>] "
               "[--trace <file>] [--workdir <dir>] [--smoke]\n");
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string_view value = argv[++i];
    if (arg == "--workload") {
      const std::optional<Workload> w = parse_workload(value);
      if (!w) return std::nullopt;
      o.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      const auto [end, ec] =
          std::from_chars(value.data(), value.data() + value.size(), o.seed);
      if (ec != std::errc() || end != value.data() + value.size()) {
        return std::nullopt;
      }
    } else if (arg == "--seconds") {
      const auto [end, ec] = std::from_chars(
          value.data(), value.data() + value.size(), o.seconds);
      if (ec != std::errc() || end != value.data() + value.size() ||
          !(o.seconds > 0.0) || o.seconds > 600.0) {
        return std::nullopt;
      }
    } else if (arg == "--trace") {
      o.trace_path = value;
    } else if (arg == "--workdir") {
      o.workdir = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return o;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Host-speed probe. The benchmark runs on a shared host whose other tenants
// slow every thread of this process by up to 1.6x, drifting over minutes:
// on a shared 4-core KVM guest, 15 s window medians of one rep's time moved
// by 11% (interquartile spread over median) across 20 minutes; 45 s windows
// still moved by 9%, and other statistics than the median moved more. The
// probe is a fixed loop of this file's own, shaped like the simulator's
// inner loop (per-layer roofline latency and energy at the current DVFS
// level, written back to a 3 MiB layer table, and a trace that grows on
// level changes), run at once on as many threads as a server has workers,
// each over its own table. It is timed between set-ups and reps, and the
// wall-clock metrics are reported in reference-host time: measured time x
// kReferenceMs / the run's median probe time. No change to the library
// moves the probe, so a change's effect on the metrics is kept whole.
// README.md ("Host-speed scaling") has the measurements behind the shape.
class HostProbe {
 public:
  // The nominal probe time that sets the scale: about the probe's median on
  // the guest above when lightly loaded, so scaled times read close to that
  // host's measured ones.
  static constexpr double kReferenceMs = 10.0;

  explicit HostProbe(std::size_t threads) {
    std::vector<Layer> table(kLayers);
    std::uint64_t x = 7;
    for (Layer& l : table) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      l.flops = static_cast<double>(x >> 40);
      l.bytes = static_cast<double>((x >> 20) & 0xfffff);
      l.level = static_cast<int>(x % kLevels);
      l.switches = (x >> 8) % 5 == 0;
    }
    tables_.assign(std::max<std::size_t>(1, threads), table);
  }

  // Runs the loop once on every thread and records the time until the last
  // one finished (about 10 ms).
  void sample() {
    std::vector<double> checksums(tables_.size());
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> helpers;
    for (std::size_t t = 1; t < tables_.size(); ++t) {
      helpers.emplace_back([&, t] { checksums[t] = run(tables_[t]); });
    }
    checksums[0] = run(tables_[0]);
    for (std::thread& helper : helpers) helper.join();
    ms_.push_back(seconds_since(start) * 1e3);
    if (ms_.size() == 1) checksum_ = checksums[0];
    for (const double checksum : checksums) {
      repeatable_ = repeatable_ && checksum == checksum_;
    }
  }

  double median_ms() const { return median(ms_); }
  std::size_t samples() const { return ms_.size(); }
  std::size_t threads() const { return tables_.size(); }
  // Multiplies a measured time into reference-host time.
  double scale() const { return kReferenceMs / median_ms(); }
  // Every thread of every sample computed the same result.
  bool repeatable() const { return repeatable_; }

 private:
  static constexpr std::size_t kLayers = 65536;  // 48 B each
  static constexpr int kLevels = 13;
  static constexpr int kPasses = 18;

  struct Layer {
    double flops = 0.0;
    double bytes = 0.0;
    double latency = 0.0;
    double energy = 0.0;
    int level = 0;
    bool switches = false;
  };

  static double run(std::vector<Layer>& table) {
    std::vector<std::pair<double, int>> trace;
    double time = 0.0;
    double energy = 0.0;
    int level = kLevels - 1;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (Layer& l : table) {
        const double ghz = 0.1 * static_cast<double>(level + 1);
        l.latency = std::max(l.flops / (ghz * 1e9), l.bytes / 5e10);
        l.energy = l.latency * (2.0 + 3.0 * ghz * ghz);
        time += l.latency;
        energy += l.energy;
        if (l.switches && l.level != level) {
          level = l.level;
          trace.emplace_back(time, level);
        }
      }
    }
    return time + energy + static_cast<double>(trace.size());
  }

  std::vector<std::vector<Layer>> tables_;  // one per thread
  std::vector<double> ms_;
  double checksum_ = 0.0;
  bool repeatable_ = true;
};

// Set-up `runs` times, with two host probes after each; setup_s is the
// median, the last deployment is kept.
Deployment timed_set_up(const Options& o, const hw::Platform& platform,
                        int runs, HostProbe& host, double& setup_s) {
  std::vector<double> times;
  Deployment d;
  for (int i = 0; i < runs; ++i) {
    d = Deployment{};  // release the previous set-up before timing the next
    const Clock::time_point start = Clock::now();
    d = set_up(o.workload, o.seed, o.smoke, platform, o.workdir);
    times.push_back(seconds_since(start));
    host.sample();
    host.sample();
  }
  setup_s = median(times);
  return d;
}

struct PlanLatency {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::vector<core::OptimizationPlan> plans;  // first call, per graph
  bool repeatable = true;  // every call returned the first call's plan
};

// Single-caller plan latency: `plan_calls` optimize() calls per distinct
// graph, cycling through the graphs so no graph runs twice in a row. The
// calls are issued a slice at a time between timed reps, so the samples
// span the whole measurement window rather than one stretch of it (load
// from other tenants of a shared host comes and goes over seconds).
class PlanProbe {
 public:
  explicit PlanProbe(const Deployment& d)
      : d_(d), graphs_(distinct_graphs(d)), ms_(graphs_.size()) {}

  std::size_t total_calls() const {
    return graphs_.size() * d_.shape.plan_calls;
  }
  bool done() const { return calls_ >= total_calls(); }

  void step(std::size_t calls) {
    for (std::size_t i = 0; i < calls && !done(); ++i, ++calls_) {
      const std::size_t g = calls_ % graphs_.size();
      const Clock::time_point start = Clock::now();
      core::OptimizationPlan plan = d_.framework->optimize(*graphs_[g], &ws_);
      ms_[g].push_back(seconds_since(start) * 1e3);
      if (out_.plans.size() == g) {
        out_.plans.push_back(std::move(plan));
      } else if (!(plan == out_.plans[g])) {
        out_.repeatable = false;
      }
    }
  }

  // Each graph's latency is its fastest call: the computation is
  // deterministic, so slower calls only add contention from other work on
  // the host. The percentiles run over graphs.
  PlanLatency result() {
    std::vector<double> per_graph;
    for (const std::vector<double>& v : ms_) {
      per_graph.push_back(*std::min_element(v.begin(), v.end()));
    }
    out_.p50_ms = quantile(per_graph, 0.50);
    out_.p99_ms = quantile(per_graph, 0.99);
    return std::move(out_);
  }

 private:
  const Deployment& d_;
  std::vector<const dnn::Graph*> graphs_;
  std::vector<std::vector<double>> ms_;
  linalg::Workspace ws_;
  std::size_t calls_ = 0;
  PlanLatency out_;
};

// Enough reps that rep_ms_p90 has at least ten samples beyond it.
constexpr std::size_t kMinReps = 100;

struct Reps {
  RepOutput reference;  // the untimed warm-up rep
  std::vector<double> seconds;
  std::size_t mismatches = 0;  // reps whose bytes differ from the reference
  std::uint64_t tasks = 0;
  std::uint64_t failed = 0;
};

// Times reps until `budget_s` has elapsed and at least `min_reps` ran (or,
// on a smoke run, exactly `min_reps`), with a slice of `probe`'s calls and
// one host probe after each rep; the slice is sized so the plan probe
// finishes with the min_reps-th rep.
Reps measure_reps(const Deployment& d, std::size_t workers, double budget_s,
                  std::size_t min_reps, bool exact, PlanProbe& probe,
                  HostProbe& host) {
  const std::size_t slice = (probe.total_calls() + min_reps - 1) / min_reps;
  Reps r;
  r.reference = run_rep(d, prepare_rep(d), workers);
  const Clock::time_point start = Clock::now();
  while (exact ? r.seconds.size() < min_reps
               : (r.seconds.size() < min_reps ||
                  seconds_since(start) < budget_s)) {
    const RepOutput rep = run_rep(d, prepare_rep(d), workers);
    r.seconds.push_back(rep.seconds);
    if (rep.fingerprint != r.reference.fingerprint) ++r.mismatches;
    r.tasks += rep.tasks;
    r.failed += rep.failed;
    probe.step(slice);
    host.sample();
  }
  return r;
}

// One serve of `tasks` under `policy` by a fresh server whose cache holds
// `plans`; the journal is off (nothing here exports it).
serve::ServeReport serve_once(const Deployment& d, serve::ServePolicy policy,
                              std::span<const serve::Task> tasks,
                              std::span<const io::PlanRecord> plans) {
  obs::Residuals residuals;
  serve::ServerConfig config =
      server_config(d, policy, serve_workers(), nullptr, &residuals);
  config.journal_enabled = false;
  serve::Server server(*d.platform, d.models, config, d.framework.get());
  if (policy == serve::ServePolicy::kPowerLens) {
    for (const io::PlanRecord& record : plans) {
      server.plan_cache().preload(
          record.graph_signature,
          std::make_shared<const core::OptimizationPlan>(record.plan));
    }
  }
  return server.serve(tasks);
}

RunResult run_end_to_end(const Options& o, const hw::Platform& platform) {
  RunResult result;
  const std::size_t workers = serve_workers();
  std::printf("workload %s, seed %llu, %zu serve workers\n",
              workload_name(o.workload),
              static_cast<unsigned long long>(o.seed), workers);

  HostProbe host(workers);
  double setup_s = 0.0;
  const Deployment d =
      timed_set_up(o, platform, o.smoke ? 1 : 5, host, setup_s);
  std::printf("deployed %zu models, %zu tasks per stream\n", d.models.size(),
              d.tasks.size());

  PlanProbe probe(d);
  const Reps reps = measure_reps(d, workers, o.seconds,
                                 o.smoke ? 3 : kMinReps, o.smoke, probe, host);
  const std::size_t n = reps.seconds.size();
  result.attempted = reps.tasks;
  result.failed = reps.failed;
  const RepOutput& ref = reps.reference;
  const serve::ServeReport& powerlens = ref.reports.front();
  const double rep_p50_s = median(reps.seconds);
  std::printf("timed %zu reps (%zu beyond p90), %llu requests\n", n,
              n - static_cast<std::size_t>(0.9 * static_cast<double>(n)),
              static_cast<unsigned long long>(reps.tasks));

  result.check(reps.mismatches == 0,
               "every rep reproduces the warm-up rep's report bytes");
  const RepOutput single = run_rep(d, prepare_rep(d), 1);
  result.check(single.fingerprint == ref.fingerprint,
               "1 worker reproduces the " + std::to_string(workers) +
                   "-worker report and journal bytes");

  const PlanLatency plan = probe.result();
  result.check(plan.repeatable, "every optimize() call returns the same plan");
  std::vector<io::PlanRecord> plans = d.plans;
  if (o.workload == Workload::kColdAdmit) {
    std::map<std::uint64_t, const core::OptimizationPlan*> fresh;
    for (std::size_t i = 0; i < d.models.size(); ++i) {
      const std::uint64_t sig = serve::graph_signature(d.models[i].graph);
      fresh.emplace(sig, &plan.plans[i]);
      plans.push_back({sig, plan.plans[i]});
    }
    bool equal = true;
    for (const auto& [sig, cached] : ref.cached_plans) {
      const auto it = fresh.find(sig);
      equal = equal && it != fresh.end() && *cached == *it->second;
    }
    result.check(equal, "every cached plan equals a fresh optimize()");
    std::vector<bool> requested(d.models.size(), false);
    for (const serve::Task& t : d.tasks) requested[t.model_index] = true;
    const auto distinct = static_cast<std::uint64_t>(
        std::count(requested.begin(), requested.end(), true));
    result.check(powerlens.plan_cache_misses == distinct &&
                     ref.cached_plans.size() == distinct,
                 "plan-cache misses equal the distinct models requested (" +
                     std::to_string(distinct) + ")");
  } else {
    bool equal = true;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      equal = equal && plans[i].plan == plan.plans[i];
    }
    result.check(equal, "set-up plans equal a fresh optimize()");
  }
  if (o.workload == Workload::kSteadyZoo) {
    result.check(powerlens.plan_cache_misses == 0,
                 "no plan-cache miss after the snapshot warm start");
  }
  if (o.workload == Workload::kFaultAdapt) {
    result.check(ref.adapt_replans >= 1 && ref.adapt_retrain_rounds >= 1,
                 "adaptation re-planned and ran a retrain round");
  }

  // Energy efficiency of the PowerLens serve against each baseline on the
  // rep stream; policy_sweep's reps already served all of them.
  std::map<serve::ServePolicy, double> ee;
  if (o.workload == Workload::kPolicySweep) {
    const std::vector<serve::ServePolicy> policies = rep_policies(o.workload);
    for (std::size_t i = 0; i < policies.size(); ++i) {
      ee[policies[i]] = ref.reports[i].energy_efficiency();
    }
  } else {
    ee[serve::ServePolicy::kPowerLens] = powerlens.energy_efficiency();
    for (const serve::ServePolicy p :
         {serve::ServePolicy::kMaxn, serve::ServePolicy::kBiM,
          serve::ServePolicy::kFpgG, serve::ServePolicy::kFpgCG}) {
      ee[p] = serve_once(d, p, d.tasks, {}).energy_efficiency();
    }
  }
  const double ee_pl = ee[serve::ServePolicy::kPowerLens];
  if (o.workload == Workload::kPolicySweep) {
    result.check(ee_pl > ee[serve::ServePolicy::kMaxn],
                 "PowerLens energy efficiency beats MAXN");
  }

  const serve::ServeReport outcome = serve_once(
      d, serve::ServePolicy::kPowerLens, d.outcome_tasks, plans);

  result.check(host.repeatable(), "every host probe computed the same result");
  const double scale = host.scale();
  const double tasks_per_s = static_cast<double>(ref.tasks) / rep_p50_s;
  const double rep_p90_ms = quantile(reps.seconds, 0.90) * 1e3;
  std::printf("host probe: median %.4f ms over %zu runs on %zu threads, "
              "reference %.1f ms; wall-clock metrics scaled by %.4f\n",
              host.median_ms(), host.samples(), host.threads(),
              HostProbe::kReferenceMs, scale);
  std::printf("unscaled: setup_s %.6g s, tasks_per_s %.6g tasks/s, "
              "rep_ms_p90 %.6g ms, plan_ms_p50 %.6g ms, plan_ms_p99 %.6g ms\n",
              setup_s, tasks_per_s, rep_p90_ms, plan.p50_ms, plan.p99_ms);

  result.add("setup_s", setup_s * scale, "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("tasks_per_s", tasks_per_s / scale, "tasks/s");
  result.add("rep_ms_p90", rep_p90_ms * scale, "ms");
  result.add("plan_ms_p50", plan.p50_ms * scale, "ms");
  result.add("plan_ms_p99", plan.p99_ms * scale, "ms");
  result.add("ee_img_per_j", outcome.energy_efficiency(), "img/J");
  result.add("ee_ratio_vs_maxn", ee_pl / ee[serve::ServePolicy::kMaxn],
             "ratio");
  result.add("ee_ratio_vs_bim", ee_pl / ee[serve::ServePolicy::kBiM], "ratio");
  result.add("ee_ratio_vs_fpg_g", ee_pl / ee[serve::ServePolicy::kFpgG],
             "ratio");
  result.add("ee_ratio_vs_fpg_cg", ee_pl / ee[serve::ServePolicy::kFpgCG],
             "ratio");
  result.add("sim_latency_mean_s", outcome.latency_mean_s, "s");
  result.add("sim_latency_p99_s", outcome.latency_p99_s, "s");

  bool positive = true;
  for (const Metric& m : result.metrics) {
    positive = positive && std::isfinite(m.value) && m.value > 0.0;
  }
  result.check(positive, "every end-to-end metric is finite and positive");
  return result;
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, ec == std::errc() ? end : buf);
}

std::string result_json(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": ";
    append_number(out, m.value);
    out += ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

int run(const Options& o) {
  obs::set_log_level(obs::LogLevel::kWarn);
  const hw::Platform platform = hw::make_tx2();
  RunResult result;
  if (o.trace_path.empty()) {
    result = run_end_to_end(o, platform);
  } else {
    obs::TraceWriter trace;
    if (!trace.open(o.trace_path)) {
      std::fprintf(stderr, "bench_e2e: cannot open trace file %s\n",
                   o.trace_path.c_str());
      return 2;
    }
    result = replay_layers(o.workload, o.seed, o.smoke, o.seconds, o.workdir,
                           platform, trace);
    trace.close();
  }
  for (const Metric& m : result.metrics) {
    std::printf("METRIC %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s\n", result_json(result).c_str());
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace powerlens::bench::e2e

int main(int argc, char** argv) {
  const std::optional<powerlens::bench::e2e::Options> options =
      powerlens::bench::e2e::parse_args(argc, argv);
  if (!options) {
    powerlens::bench::e2e::usage();
    return 2;
  }
  try {
    return powerlens::bench::e2e::run(*options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
