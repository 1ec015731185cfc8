// Chaos serving bench: energy efficiency and recovery behavior of all five
// serving policies under injected hardware faults.
//
// Sweeps the DVFS actuation-failure rate (with a sticky stuck-clock window)
// across PowerLens, MAXN, and the three reactive baselines, then runs one
// "full chaos" spec with all four fault classes live. Per row: energy, EE,
// busy time, retries/fallbacks/backoff of the degradation machinery, and
// the injected-fault counters. One JSON record per row (prefixed "JSON ").
//
// The bench doubles as the PR's acceptance check, verified loudly at the
// end ("CHECK" lines; non-zero exit on failure):
//   - at a 10% DVFS-failure rate, PowerLens-with-fallback completes every
//     admitted request, and
//   - its report is byte-identical across host worker counts.
#include "bench_common.hpp"

#include "fault/fault_spec.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/residuals.hpp"
#include "obs/setup.hpp"
#include "serve/server.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace powerlens::bench {
namespace {

constexpr int kTasks = 40;
constexpr int kImagesPerTask = 20;
constexpr std::int64_t kBatch = 10;
constexpr std::uint64_t kFaultSeed = 42;

const serve::ServePolicy kPolicies[] = {
    serve::ServePolicy::kPowerLens, serve::ServePolicy::kMaxn,
    serve::ServePolicy::kBiM, serve::ServePolicy::kFpgG,
    serve::ServePolicy::kFpgCG};

serve::RequestStreamConfig stream_config() {
  serve::RequestStreamConfig cfg;
  cfg.seed = 7;
  cfg.num_tasks = kTasks;
  cfg.images_per_task = kImagesPerTask;
  cfg.batch = kBatch;
  return cfg;
}

fault::FaultSpec dvfs_spec(double rate) {
  fault::FaultSpec spec;
  spec.seed = kFaultSeed;
  spec.dvfs_fail_rate = rate;
  spec.dvfs_sticky_s = 0.2;
  return spec;
}

fault::FaultSpec full_chaos_spec() {
  return fault::FaultSpec::parse(
      "dvfs=0.1,sticky=0.2,thermal=0.5,thermal_s=0.2,thermal_cap=3,"
      "telemetry=0.05,latency=0.05,latency_x=1.5,seed=42");
}

serve::ServeReport run_one(const TrainedFramework& t,
                           const std::vector<serve::DeployedModel>& models,
                           serve::ServePolicy policy,
                           const fault::FaultSpec& faults,
                           std::size_t workers,
                           obs::Journal* journal = nullptr,
                           obs::Residuals* residuals = nullptr) {
  serve::ServerConfig config;
  config.policy = policy;
  config.num_workers = serve::is_plan_policy(policy) ? workers : 1;
  config.faults = faults;
  config.journal = journal;      // null -> the process default sink
  config.residuals = residuals;  // null -> the process default sink
  serve::Server server(t.platform, models, config, t.framework.get());
  return server.serve(serve::RequestStream(models.size(), stream_config()));
}

void print_row(const char* label, serve::ServePolicy policy,
               const serve::ServeReport& r) {
  std::printf("%-11s %-10s %-10.4f %-9.2f %-9.2f %-8zu %-9zu %-8.2f %-8zu\n",
              label, serve::policy_name(policy), r.energy_efficiency(),
              r.energy_j, r.busy_s, r.retries, r.fallbacks, r.backoff_s,
              r.faults.dvfs_failed);

  obs::JsonWriter json;
  json.field("bench", "chaos_serve")
      .field("faults", label)
      .field("policy", r.policy)
      .field("tasks", static_cast<double>(r.total_tasks))
      .field("energy_j", r.energy_j)
      .field("ee_img_per_j", r.energy_efficiency())
      .field("busy_s", r.busy_s)
      .field("images", static_cast<double>(r.images))
      .field("retries", static_cast<double>(r.retries))
      .field("fallbacks", static_cast<double>(r.fallbacks))
      .field("backoff_s", r.backoff_s)
      .field("fault_dvfs_failed", static_cast<double>(r.faults.dvfs_failed))
      .field("fault_thermal_events",
             static_cast<double>(r.faults.thermal_events))
      .field("fault_telemetry_dropped",
             static_cast<double>(r.faults.telemetry_dropped))
      .field("fault_latency_inflated",
             static_cast<double>(r.faults.latency_inflated));
  std::printf("JSON %s\n", json.str().c_str());
}

int run(const hw::Platform& platform, std::size_t sweep_workers) {
  std::printf("Chaos serving sweep on %s (%d tasks x %d images, seed %llu, "
              "%zu workers)\n",
              platform.name.c_str(), kTasks, kImagesPerTask,
              static_cast<unsigned long long>(kFaultSeed), sweep_workers);
  TrainedFramework t = train_for(platform);

  std::vector<serve::DeployedModel> models;
  for (const char* name : {"alexnet", "mobilenet_v3", "googlenet"}) {
    models.push_back({name, dnn::make_model(name, kBatch)});
  }

  std::printf("\n%-11s %-10s %-10s %-9s %-9s %-8s %-9s %-8s %-8s\n",
              "faults", "policy", "EE_img_J", "energy_J", "busy_s", "retries",
              "fallbacks", "backoff", "dvfs_f");

  for (const double rate : {0.0, 0.01, 0.05, 0.1, 0.25}) {
    char label[32];
    std::snprintf(label, sizeof(label), "dvfs=%.2f", rate);
    for (const serve::ServePolicy policy : kPolicies) {
      print_row(label, policy,
                run_one(t, models, policy, dvfs_spec(rate), sweep_workers));
    }
  }
  for (const serve::ServePolicy policy : kPolicies) {
    print_row("full-chaos", policy,
              run_one(t, models, policy, full_chaos_spec(), sweep_workers));
  }

  // --- per-model predicted-vs-observed residuals (full chaos, PowerLens) ---
  // A private sink isolates this table from the sweep rows above; the serve
  // fold records residuals in task order, so the table is deterministic.
  obs::Residuals residual_sink;
  run_one(t, models, serve::ServePolicy::kPowerLens, full_chaos_spec(),
          sweep_workers, nullptr, &residual_sink);
  std::printf("\nper-model prediction residuals (full chaos, PowerLens; "
              "signed (obs-pred)/pred):\n");
  std::printf("%-14s %-7s %-10s %-10s %-10s %-10s %-10s %-10s\n", "model",
              "count", "lat_mean", "lat_|mean|", "lat_ewma", "en_mean",
              "en_|mean|", "en_ewma");
  for (const serve::DeployedModel& m : models) {
    const obs::Residuals::Stats s =
        residual_sink.by_model("PowerLens", m.name);
    std::printf("%-14s %-7llu %-10.4f %-10.4f %-10.4f %-10.4f %-10.4f "
                "%-10.4f\n",
                m.name.c_str(),
                static_cast<unsigned long long>(s.latency.count),
                s.latency.mean(), s.latency.mean_abs(), s.latency.ewma,
                s.energy.mean(), s.energy.mean_abs(), s.energy.ewma);
    obs::JsonWriter json;
    json.field("bench", "chaos_serve_residuals")
        .field("model", m.name)
        .field("count", static_cast<double>(s.latency.count))
        .field("latency_mean", s.latency.mean())
        .field("latency_mean_abs", s.latency.mean_abs())
        .field("latency_ewma", s.latency.ewma)
        .field("energy_mean", s.energy.mean())
        .field("energy_mean_abs", s.energy.mean_abs())
        .field("energy_ewma", s.energy.ewma);
    std::printf("JSON %s\n", json.str().c_str());
  }
  const obs::Residuals::DriftCounts drift = residual_sink.drift_counts();
  std::printf("drift flags: %zu model + %zu signature of %llu scored "
              "requests\n",
              drift.models, drift.signatures,
              static_cast<unsigned long long>(residual_sink.scored()));

  // --- acceptance checks: 10% DVFS-failure rate, PowerLens with fallback ---
  // Each worker count gets a private journal + residual sink, so the
  // byte-equality checks cover the full observability exports, not just the
  // report aggregates.
  std::printf("\n");
  const fault::FaultSpec accept = dvfs_spec(0.1);
  obs::Journal j1, j4, j8;
  obs::Residuals r1, r4, r8;
  const serve::ServeReport w1 =
      run_one(t, models, serve::ServePolicy::kPowerLens, accept, 1, &j1, &r1);
  const serve::ServeReport w4 =
      run_one(t, models, serve::ServePolicy::kPowerLens, accept, 4, &j4, &r4);
  const serve::ServeReport w8 =
      run_one(t, models, serve::ServePolicy::kPowerLens, accept, 8, &j8, &r8);

  bool every_request_completed = w1.admitted == static_cast<std::size_t>(
                                                    kTasks);
  for (const serve::RequestOutcome& out : w1.outcomes) {
    every_request_completed =
        every_request_completed && out.admitted && out.images > 0;
  }
  const auto identical = [](const serve::ServeReport& a,
                            const serve::ServeReport& b) {
    bool same = a.energy_j == b.energy_j && a.busy_s == b.busy_s &&
                a.images == b.images && a.retries == b.retries &&
                a.fallbacks == b.fallbacks && a.backoff_s == b.backoff_s &&
                a.faults == b.faults &&
                a.outcomes.size() == b.outcomes.size();
    for (std::size_t i = 0; same && i < a.outcomes.size(); ++i) {
      same = a.outcomes[i].finish_s == b.outcomes[i].finish_s &&
             a.outcomes[i].energy_j == b.outcomes[i].energy_j;
    }
    return same;
  };

  bool ok = true;
  ok &= check(every_request_completed,
              "dvfs=0.10: every admitted request completes under fallback");
  ok &= check(identical(w1, w4),
              "dvfs=0.10: report byte-identical at 1 vs 4 workers");
  ok &= check(identical(w1, w8),
              "dvfs=0.10: report byte-identical at 1 vs 8 workers");
  ok &= check(j1.jsonl() == j4.jsonl(),
              "dvfs=0.10: journal JSONL byte-identical at 1 vs 4 workers");
  ok &= check(j1.jsonl() == j8.jsonl(),
              "dvfs=0.10: journal JSONL byte-identical at 1 vs 8 workers");
  ok &= check(r1.json() == r4.json(),
              "dvfs=0.10: residual snapshot byte-identical at 1 vs 4 workers");
  ok &= check(r1.json() == r8.json(),
              "dvfs=0.10: residual snapshot byte-identical at 1 vs 8 workers");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace powerlens::bench

int main(int argc, char** argv) {
  // Accepts the common observability flags (--journal/--residuals/--trace/
  // --metrics) plus an optional positional worker count for the sweep rows,
  // so CI can export the full journal at different worker counts and diff
  // the files byte for byte.
  const powerlens::obs::ObsOptions obs_options =
      powerlens::obs::extract_cli_flags(argc, argv);
  const powerlens::obs::ObsScope obs_scope(obs_options);
  std::size_t sweep_workers = 4;
  if (argc > 1) {
    const unsigned long parsed = std::strtoul(argv[1], nullptr, 10);
    if (parsed == 0) {
      std::fprintf(stderr, "usage: bench_chaos_serve [workers]\n");
      return 2;
    }
    sweep_workers = parsed;
  }
  return powerlens::bench::run(powerlens::hw::make_tx2(), sweep_workers);
}
