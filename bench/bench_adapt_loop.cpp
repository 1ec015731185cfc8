// Closed-loop adaptation bench: drift-triggered online re-planning with
// background decision-model retraining (serve/adapt).
//
// Injects persistent latency inflation (nearly every layer 2x slower than
// the analytic model predicts) into a PowerLens serving run with graceful
// degradation disabled, so the drift signal is pure model error. A static
// control run shows the residual EWMA pinned far past the drift threshold
// for the whole stream; the adaptive run re-plans at the first epoch
// boundary and the EWMA collapses. Per model: final EWMA static vs
// adaptive, plus the adaptation counters (epochs, re-plans, retrain
// rounds, bundle swaps). One JSON record per row (prefixed "JSON ").
//
// The bench doubles as the PR's acceptance check ("CHECK" lines; non-zero
// exit on failure):
//   - the control run actually drifts (|EWMA| > threshold),
//   - the adaptive run collapses every model's |EWMA| under the threshold,
//   - with retraining enabled, journal JSONL and residual snapshots are
//     byte-identical at 1 vs 8 workers.
#include "bench_common.hpp"

#include "fault/fault_spec.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/residuals.hpp"
#include "obs/setup.hpp"
#include "serve/adapt.hpp"
#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

namespace powerlens::bench {
namespace {

constexpr int kTasks = 80;
constexpr std::size_t kEpoch = 10;
constexpr int kImagesPerTask = 20;
constexpr std::int64_t kBatch = 10;

serve::RequestStreamConfig stream_config() {
  serve::RequestStreamConfig cfg;
  cfg.seed = 7;
  cfg.num_tasks = kTasks;
  cfg.images_per_task = kImagesPerTask;
  cfg.batch = kBatch;
  return cfg;
}

// Persistent 2x latency inflation: the clean drift driver (no DVFS faults,
// nothing retries, the residual is pure analytic-model error).
fault::FaultSpec drift_spec() {
  return fault::FaultSpec::parse("latency=0.9,latency_x=2.0,seed=42");
}

struct RunResult {
  serve::ServeReport report;
  std::uint64_t epochs = 0;
  std::uint64_t replans = 0;
  std::uint64_t retrain_rounds = 0;
  std::uint64_t model_swaps = 0;
  // Wall-clock of each epoch's replan_batch call, in arrival order.
  std::vector<double> replan_latencies_ms;
};

// Linear-interpolated quantile over a copy; 0.0 when no re-plans ran.
double percentile_ms(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

RunResult run_one(const TrainedFramework& t,
                  const std::vector<serve::DeployedModel>& models,
                  std::size_t workers, bool adapt, bool retrain,
                  obs::Journal* journal, obs::Residuals* residuals) {
  serve::ServerConfig config;
  config.policy = serve::ServePolicy::kPowerLens;
  config.num_workers = workers;
  config.faults = drift_spec();
  // Degradation recovery off: a fallen-back request would dilute the drift
  // this bench injects on purpose.
  config.degrade.fallback_enabled = false;
  config.journal = journal;      // null -> the process default sink
  config.residuals = residuals;  // null -> the process default sink
  config.adapt_enabled = adapt;
  config.adapt_epoch_tasks = kEpoch;
  config.adapt_retrain = retrain;
  config.adapt_retrain_min_rows = 10;
  serve::Server server(t.platform, models, config, t.framework.get());
  RunResult r{server.serve(serve::RequestStream(models.size(),
                                                stream_config())),
              0, 0, 0, 0, {}};
  if (const serve::AdaptController* a = server.adapt_controller()) {
    r.epochs = a->epochs();
    r.replans = a->replans();
    r.retrain_rounds = a->retrain_rounds();
    r.model_swaps = a->model_swaps();
    const std::span<const double> lat = a->replan_latencies_ms();
    r.replan_latencies_ms.assign(lat.begin(), lat.end());
  }
  return r;
}

// Mean |latency residual| over a task-id window — the before/after view.
double window_mean_abs(const serve::ServeReport& r, std::size_t begin,
                       std::size_t end) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const serve::RequestOutcome& o : r.outcomes) {
    if (o.task_id < begin || o.task_id >= end) continue;
    if (!std::isfinite(o.latency_residual)) continue;
    sum += std::abs(o.latency_residual);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

int run(const hw::Platform& platform, std::size_t workers) {
  std::printf("Closed-loop adaptation on %s (%d tasks, epoch %zu, 2x "
              "latency inflation, %zu workers)\n",
              platform.name.c_str(), kTasks, kEpoch, workers);
  TrainedFramework t = train_for(platform);

  // vgg19 clusters into several power blocks, so the drift re-plans harvest
  // enough decision-model rows to cross the retrain floor and the
  // background-refit + bundle-swap path runs for real.
  std::vector<serve::DeployedModel> models;
  for (const char* name :
       {"alexnet", "mobilenet_v3", "googlenet", "vgg19"}) {
    models.push_back({name, dnn::make_model(name, kBatch)});
  }

  // Control: static plans all the way. Private sinks keep its records out
  // of the exported (default-sink) adaptive run below.
  obs::Journal static_journal;
  obs::Residuals static_sink;
  run_one(t, models, workers, /*adapt=*/false, /*retrain=*/false,
          &static_journal, &static_sink);

  // The headline adaptive run writes the process default sinks, so
  // --journal/--residuals flags export ITS records for CI to diff across
  // worker counts and to assert the post-adaptation EWMA on.
  const RunResult adaptive = run_one(t, models, workers, /*adapt=*/true,
                                     /*retrain=*/true, nullptr, nullptr);
  const obs::Residuals& adaptive_sink = obs::default_residuals();

  const double threshold = static_sink.config().drift_threshold;
  std::printf("\nfinal latency-residual EWMA per model (drift threshold "
              "%.2f):\n", threshold);
  std::printf("%-14s %-12s %-12s %-10s\n", "model", "static", "adaptive",
              "collapsed");
  double worst_static = 0.0, worst_adaptive = 0.0;
  for (const serve::DeployedModel& m : models) {
    const obs::Residuals::Stats s = static_sink.by_model("PowerLens", m.name);
    const obs::Residuals::Stats a =
        adaptive_sink.by_model("PowerLens", m.name);
    worst_static = std::max(worst_static, std::abs(s.latency.ewma));
    worst_adaptive = std::max(worst_adaptive, std::abs(a.latency.ewma));
    std::printf("%-14s %-12.4f %-12.4f %-10s\n", m.name.c_str(),
                s.latency.ewma, a.latency.ewma,
                std::abs(a.latency.ewma) < threshold ? "yes" : "NO");
    obs::JsonWriter json;
    json.field("bench", "adapt_loop")
        .field("model", m.name)
        .field("static_latency_ewma", s.latency.ewma)
        .field("adaptive_latency_ewma", a.latency.ewma)
        .field("static_energy_ewma", s.energy.ewma)
        .field("adaptive_energy_ewma", a.energy.ewma)
        .field("drift_threshold", threshold);
    std::printf("JSON %s\n", json.str().c_str());
  }

  const double head = window_mean_abs(adaptive.report, 0, kEpoch);
  const double tail =
      window_mean_abs(adaptive.report, kTasks - 2 * kEpoch, kTasks);
  std::printf("\nadaptation counters: %llu epochs, %llu re-plans, %llu "
              "retrain rounds, %llu bundle swaps\n",
              static_cast<unsigned long long>(adaptive.epochs),
              static_cast<unsigned long long>(adaptive.replans),
              static_cast<unsigned long long>(adaptive.retrain_rounds),
              static_cast<unsigned long long>(adaptive.model_swaps));
  std::printf("mean |latency residual|: first epoch %.4f -> last two epochs "
              "%.4f\n", head, tail);
  const double replan_p50 = percentile_ms(adaptive.replan_latencies_ms, 0.50);
  const double replan_p95 = percentile_ms(adaptive.replan_latencies_ms, 0.95);
  std::printf("re-plan latency per epoch: p50 %.3f ms  p95 %.3f ms "
              "(%zu replan_batch calls)\n",
              replan_p50, replan_p95, adaptive.replan_latencies_ms.size());
  obs::JsonWriter json;
  json.field("bench", "adapt_loop_summary")
      .field("epochs", static_cast<double>(adaptive.epochs))
      .field("replans", static_cast<double>(adaptive.replans))
      .field("retrain_rounds", static_cast<double>(adaptive.retrain_rounds))
      .field("model_swaps", static_cast<double>(adaptive.model_swaps))
      .field("replan_latency_p50_ms", replan_p50)
      .field("replan_latency_p95_ms", replan_p95)
      .field("replan_latency_samples",
             static_cast<double>(adaptive.replan_latencies_ms.size()))
      .field("head_mean_abs_residual", head)
      .field("tail_mean_abs_residual", tail)
      .field("worst_static_ewma", worst_static)
      .field("worst_adaptive_ewma", worst_adaptive);
  std::printf("JSON %s\n", json.str().c_str());

  // --- acceptance checks ---
  std::printf("\n");
  obs::Journal j1, j8;
  obs::Residuals r1, r8;
  const RunResult w1 = run_one(t, models, 1, true, true, &j1, &r1);
  const RunResult w8 = run_one(t, models, 8, true, true, &j8, &r8);

  bool completed = adaptive.report.admitted == static_cast<std::size_t>(
                                                   kTasks);
  for (const serve::RequestOutcome& out : adaptive.report.outcomes) {
    completed = completed && out.admitted && out.images > 0;
  }

  bool ok = true;
  ok &= check(completed, "adaptive run completes every admitted request");
  ok &= check(adaptive.replans > 0, "drift triggered at least one re-plan");
  ok &= check(adaptive.retrain_rounds >= 1,
              "harvested rows launched a background retrain round");
  ok &= check(adaptive.model_swaps >= 1,
              "a refitted bundle swapped in at an epoch boundary");
  ok &= check(worst_static > threshold,
              "static control run drifts past the threshold");
  ok &= check(worst_adaptive < threshold,
              "adaptation collapses every model EWMA under the threshold");
  ok &= check(tail < 0.5 * head,
              "post-adaptation |residual| beats the first epoch by 2x");
  ok &= check(w1.replans == w8.replans,
              "re-plan count identical at 1 vs 8 workers");
  ok &= check(j1.jsonl() == j8.jsonl(),
              "journal JSONL byte-identical at 1 vs 8 workers");
  ok &= check(r1.json() == r8.json(),
              "residual snapshot byte-identical at 1 vs 8 workers");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace powerlens::bench

int main(int argc, char** argv) {
  // Accepts the common observability flags (--journal/--residuals/--trace/
  // --metrics) plus an optional positional worker count, so CI can export
  // the adaptive run's journal and residual snapshot at different worker
  // counts, diff the files byte for byte, and assert the post-adaptation
  // EWMA from the residuals export.
  const powerlens::obs::ObsOptions obs_options =
      powerlens::obs::extract_cli_flags(argc, argv);
  const powerlens::obs::ObsScope obs_scope(obs_options);
  std::size_t workers = 4;
  if (argc > 1) {
    const unsigned long parsed = std::strtoul(argv[1], nullptr, 10);
    if (parsed == 0) {
      std::fprintf(stderr, "usage: bench_adapt_loop [workers]\n");
      return 2;
    }
    workers = parsed;
  }
  return powerlens::bench::run(powerlens::hw::make_tx2(), workers);
}
