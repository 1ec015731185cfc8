// Serving-layer throughput: host-side scaling of the task-flow engine.
//
// Sweeps the Server's worker count and the stream's arrival regime and
// reports, per configuration: host wall-clock of the serve() call, host
// throughput (requests simulated per host-second), plan-cache hit rate, and
// the simulated-side aggregates (energy, EE, latency percentiles). The
// simulated numbers are identical down the whole sweep — that is the serving
// layer's determinism contract (worker count and cache only change
// wall-clock) — so this bench doubles as a visible check of it: any drift
// across rows is a bug.
//
// One JSON record per row on stdout (prefixed "JSON "), python3 -m
// json.tool clean, for scripted consumption.
#include "bench_common.hpp"

#include "obs/json.hpp"
#include "serve/server.hpp"

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

namespace powerlens::bench {
namespace {

constexpr int kTasks = 100;
constexpr int kImagesPerTask = 50;
constexpr std::int64_t kBatch = 10;

struct Row {
  std::string arrivals;
  std::size_t workers = 0;
  bool cache = true;
  bool instrumented = true;  // journal + residual accounting enabled
  double host_s = 0.0;
  serve::ServeReport report;
};

Row run_one(const TrainedFramework& t,
            const std::vector<serve::DeployedModel>& models,
            const serve::RequestStream& stream, std::size_t workers,
            bool cache, bool instrumented = true) {
  serve::ServerConfig config;
  config.policy = serve::ServePolicy::kPowerLens;
  config.num_workers = workers;
  config.use_plan_cache = cache;
  config.journal_enabled = instrumented;
  config.residuals_enabled = instrumented;
  serve::Server server(t.platform, models, config, t.framework.get());

  const auto start = std::chrono::steady_clock::now();
  serve::ServeReport report = server.serve(stream);
  const auto stop = std::chrono::steady_clock::now();

  Row row;
  row.arrivals = stream.config().arrivals == serve::ArrivalProcess::kPoisson
                     ? "poisson"
                     : "closed-loop";
  row.workers = workers;
  row.cache = cache;
  row.instrumented = instrumented;
  row.host_s = std::chrono::duration<double>(stop - start).count();
  row.report = std::move(report);
  return row;
}

void print_row(const Row& row) {
  const serve::ServeReport& r = row.report;
  std::printf("%-12s %-8zu %-6s %-7s %-9.3f %-10.1f %-10.4f %-9.2f %-12.4f\n",
              row.arrivals.c_str(), row.workers, row.cache ? "on" : "off",
              row.instrumented ? "on" : "off", row.host_s,
              row.host_s > 0.0 ? static_cast<double>(r.total_tasks) / row.host_s
                               : 0.0,
              r.energy_efficiency(), r.makespan_s, r.latency_p99_s);

  obs::JsonWriter json;
  json.field("bench", "serve_throughput")
      .field("arrivals", row.arrivals)
      .field("workers", static_cast<double>(row.workers))
      .field("plan_cache", row.cache)
      .field("instrumented", row.instrumented)
      .field("host_seconds", row.host_s)
      .field("tasks", static_cast<double>(r.total_tasks))
      .field("energy_j", r.energy_j)
      .field("ee_img_per_j", r.energy_efficiency())
      .field("makespan_s", r.makespan_s)
      .field("latency_p50_s", r.latency_p50_s)
      .field("latency_p99_s", r.latency_p99_s)
      .field("cache_hits", static_cast<double>(r.plan_cache_hits))
      .field("cache_misses", static_cast<double>(r.plan_cache_misses));
  std::printf("JSON %s\n", json.str().c_str());
}

void run_platform(const TrainedFramework& t) {
  const hw::Platform& platform = t.platform;
  std::printf("\n=== Serving throughput on %s (%d tasks x %d images) ===\n",
              platform.name.c_str(), kTasks, kImagesPerTask);

  std::vector<serve::DeployedModel> models;
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    models.push_back({std::string(spec.name), spec.build(kBatch)});
  }

  serve::RequestStreamConfig closed;
  closed.seed = 7;
  closed.num_tasks = kTasks;
  closed.images_per_task = kImagesPerTask;
  closed.batch = kBatch;
  serve::RequestStreamConfig poisson = closed;
  poisson.arrivals = serve::ArrivalProcess::kPoisson;
  poisson.arrival_rate_hz = 2.0;

  std::printf("%-12s %-8s %-6s %-7s %-9s %-10s %-10s %-9s %-12s\n",
              "arrivals", "workers", "cache", "journal", "host_s",
              "req_per_s", "EE_img_J", "makespan", "p99_s");

  double ref_ee = 0.0;
  for (const serve::RequestStreamConfig& sc : {closed, poisson}) {
    const serve::RequestStream stream(models.size(), sc);
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      const Row row = run_one(t, models, stream, workers, /*cache=*/true);
      print_row(row);
      if (ref_ee == 0.0) ref_ee = row.report.energy_efficiency();
      if (std::abs(row.report.energy_efficiency() - ref_ee) >
          0.0) {  // determinism contract: bit-identical across workers
        std::printf("WARNING: EE drifted across worker counts\n");
      }
    }
    // Cache-off reference: same results, pays a fresh optimize() per task.
    print_row(run_one(t, models, stream, 4, /*cache=*/false));
    // Instrumentation-off reference: journal + residual accounting disabled.
    print_row(run_one(t, models, stream, 4, /*cache=*/true,
                      /*instrumented=*/false));
    ref_ee = 0.0;
  }
}

// The journal's always-on promise is "cheap enough to never turn off":
// serve wall-clock with instrumentation on must stay within 5% of
// instrumentation off, as the median of paired on/off runs. Loud CHECK,
// non-zero exit on failure.
bool check_journal_overhead(const TrainedFramework& t) {
  std::vector<serve::DeployedModel> models;
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    models.push_back({std::string(spec.name), spec.build(kBatch)});
  }
  serve::RequestStreamConfig sc;
  sc.seed = 7;
  sc.num_tasks = kTasks;
  sc.images_per_task = kImagesPerTask;
  sc.batch = kBatch;
  const serve::RequestStream stream(models.size(), sc);

  constexpr int kPairs = 41;
  const PairedRatio on_over_off = paired_ratio(
      [&] {
        return run_one(t, models, stream, 4, true, /*instrumented=*/true)
            .host_s;
      },
      [&] {
        return run_one(t, models, stream, 4, true, /*instrumented=*/false)
            .host_s;
      },
      kPairs);
  const double best_on = on_over_off.a_min;
  const double best_off = on_over_off.b_min;
  const double overhead =
      best_off > 0.0 ? (best_on - best_off) / best_off : 0.0;
  const double paired_overhead = on_over_off.median - 1.0;
  const bool ok = paired_overhead <= 0.05;
  std::printf("\njournal overhead: %.3fs on vs %.3fs off (best of %d), "
              "paired median %+.2f%% -> CHECK %s (budget 5%%)\n",
              best_on, best_off, kPairs, paired_overhead * 100.0,
              ok ? "PASSED" : "FAILED");
  obs::JsonWriter json;
  json.field("bench", "serve_journal_overhead")
      .field("best_on_s", best_on)
      .field("best_off_s", best_off)
      .field("overhead_ratio", overhead)
      .field("overhead_paired", paired_overhead)
      .field("passed", ok);
  std::printf("JSON %s\n", json.str().c_str());
  return ok;
}

}  // namespace
}  // namespace powerlens::bench

int main() {
  std::printf("Serving-layer throughput sweep (plan policy: PowerLens)\n");
  const powerlens::bench::TrainedFramework t =
      powerlens::bench::train_for(powerlens::hw::make_tx2());
  powerlens::bench::run_platform(t);
  return powerlens::bench::check_journal_overhead(t) ? 0 : 1;
}
