#include "layer_replay.hpp"

#include "baselines/fpg.hpp"
#include "baselines/ondemand.hpp"
#include "clustering/cluster.hpp"
#include "core/dataset_gen.hpp"
#include "fault/fault_injector.hpp"
#include "features/depthwise.hpp"
#include "features/global.hpp"
#include "hw/cost_table.hpp"
#include "hw/sim_engine.hpp"
#include "serve/plan_cache.hpp"
#include "serve/signature.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

namespace powerlens::bench::e2e {
namespace {

// Graphs per optimize_batch / replan_batch call: the size of a coalesced
// plan-cache miss batch when a handful of workers miss at once.
constexpr std::size_t kBatchPlans = 8;
// Repeats of each fixed-size replay (stream generation, batches, serves,
// snapshot loads); their median is reported.
constexpr int kRepeats = 3;
// Upper bound on the untraced/traced rep pairs behind bench.trace_overhead;
// every traced rep adds its per-request spans to the trace file.
constexpr std::size_t kMaxTracePairs = 8;

double us_since(Clock::time_point start) { return seconds_since(start) * 1e6; }

// Runs `f` inside a span of `trace` and returns its wall-clock in µs.
template <typename F>
double span_us(obs::TraceWriter& trace, std::string_view layer,
               std::string_view call, F&& f) {
  const obs::ScopedSpan span(trace, call, layer);
  const Clock::time_point start = Clock::now();
  f();
  return us_since(start);
}

// Per graph: optimize() and the public calls it is made of, each replayed
// on its own. Times are medians over rounds.
struct PlanPhases {
  std::vector<core::OptimizationPlan> plans;  // first round
  std::vector<double> optimize_us;
  std::vector<double> features_us;
  std::vector<double> cost_table_us;
  std::vector<double> distance_us;
  std::vector<double> dbscan_us;
  // optimize() minus the four replayed phases: hyperparameter and level
  // prediction, the feasibility merge, and schedule emission.
  std::vector<double> self_us;
  bool views_match = true;
};

PlanPhases replay_plan_phases(const Deployment& d, obs::TraceWriter& trace,
                              std::size_t rounds) {
  const std::vector<const dnn::Graph*> graphs = distinct_graphs(d);
  const hw::Platform& platform = *d.platform;
  const clustering::DistanceParams& distance_params =
      d.framework->config().dataset.distance;
  const std::size_t cpu_levels[] = {platform.max_cpu_level()};
  linalg::Workspace ws;

  enum { kOptimize, kFeatures, kCostTable, kDistance, kDbscan, kSelf, kCount };
  std::vector<std::array<std::vector<double>, kCount>> samples(graphs.size());
  PlanPhases out;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const dnn::Graph& graph = *graphs[g];
      std::array<double, kCount> t{};
      core::OptimizationPlan plan;
      t[kOptimize] = span_us(trace, "core", "optimize",
                             [&] { plan = d.framework->optimize(graph, &ws); });
      linalg::Matrix table;
      t[kFeatures] = span_us(trace, "features", "extract", [&] {
        (void)features::GlobalFeatureExtractor::extract(graph);
        table = features::DepthwiseFeatureExtractor::extract(graph);
      });
      std::optional<hw::CostTable> costs;
      t[kCostTable] = span_us(trace, "hw", "cost_table", [&] {
        costs.emplace(platform, graph.layers(), cpu_levels);
      });
      linalg::Workspace::Lease dist = ws.lease(0, 0);
      clustering::EpsAdjacency adjacency;
      t[kDistance] = span_us(trace, "clustering", "distance", [&] {
        clustering::power_distances_adj_into(table, distance_params,
                                             plan.hyper.eps, ws, *dist,
                                             adjacency);
      });
      clustering::PowerView view;
      t[kDbscan] = span_us(trace, "clustering", "dbscan", [&] {
        view = clustering::build_power_view_from_adjacency(*dist, adjacency,
                                                           plan.hyper);
      });
      view = core::enforce_min_block_duration(
          *costs, view, platform,
          core::feasible_block_duration(*costs, platform));
      out.views_match = out.views_match && view == plan.view;
      t[kSelf] = t[kOptimize] - t[kFeatures] - t[kCostTable] - t[kDistance] -
                 t[kDbscan];
      for (int k = 0; k < kCount; ++k) samples[g][k].push_back(t[k]);
      if (round == 0) out.plans.push_back(std::move(plan));
    }
  }
  for (auto& s : samples) {
    out.optimize_us.push_back(median(s[kOptimize]));
    out.features_us.push_back(median(s[kFeatures]));
    out.cost_table_us.push_back(median(s[kCostTable]));
    out.distance_us.push_back(median(s[kDistance]));
    out.dbscan_us.push_back(median(s[kDbscan]));
    out.self_us.push_back(median(s[kSelf]));
  }
  return out;
}

bool same_tasks(const std::vector<serve::Task>& a,
                const std::vector<serve::Task>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const serve::Task& x, const serve::Task& y) {
                      return x.id == y.id && x.model_index == y.model_index &&
                             x.passes == y.passes &&
                             x.arrival_s == y.arrival_s &&
                             x.deadline_s == y.deadline_s;
                    });
}

}  // namespace

RunResult replay_layers(Workload workload, std::uint64_t seed, bool smoke,
                        double seconds, const std::string& workdir,
                        const hw::Platform& platform,
                        obs::TraceWriter& trace) {
  RunResult result;
  const std::size_t workers = serve_workers();
  std::optional<Deployment> deployment;
  span_us(trace, "bench", "set_up", [&] {
    deployment.emplace(set_up(workload, seed, smoke, platform, workdir));
  });
  const Deployment& d = *deployment;
  const std::vector<const dnn::Graph*> graphs = distinct_graphs(d);
  const std::size_t tasks = d.tasks.size();
  std::printf("workload %s, seed %llu: layer replay of %zu graphs, %zu tasks\n",
              workload_name(workload), static_cast<unsigned long long>(seed),
              graphs.size(), tasks);

  // --- core: the offline phase, generation on its own and then in train().
  core::PowerLens fresh(platform, offline_config(d.shape));
  const double dataset_gen_s =
      span_us(trace, "core", "generate_datasets",
              [&] {
                (void)core::generate_datasets(platform,
                                              fresh.config().dataset);
              }) /
      1e6;
  const double train_s =
      span_us(trace, "core", "train", [&] { (void)fresh.train(); }) / 1e6;
  result.check(fresh.optimize(*graphs.front()) ==
                   d.framework->optimize(*graphs.front()),
               "retraining reproduces the set-up framework's plans");

  // --- serve: stream generation.
  std::vector<double> stream_ms;
  bool stream_equal = true;
  for (int i = 0; i < kRepeats; ++i) {
    std::vector<serve::Task> regenerated;
    stream_ms.push_back(span_us(trace, "serve", "stream_generate", [&] {
                          regenerated = serve::RequestStream(d.models.size(),
                                                             d.stream)
                                            .generate();
                        }) /
                        1e3);
    stratify_models(regenerated, d.models.size(), d.stream.seed);
    stream_equal = stream_equal && same_tasks(regenerated, d.outcome_tasks);
  }
  result.check(stream_equal, "the stream regenerates identically");

  // --- core / features / hw / clustering: plan computation by phase.
  const PlanPhases phases = replay_plan_phases(
      d, trace, smoke ? 1 : std::min<std::size_t>(d.shape.plan_calls, 7));
  result.check(phases.views_match,
               "the replayed phases rebuild optimize()'s power view");

  linalg::Workspace ws;
  std::vector<double> batch_us_per_plan;
  std::vector<double> replan_us_per_plan;
  bool batch_equal = true;
  std::vector<core::ReplanRequest> replans;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    core::ReplanRequest req;
    req.graph = graphs[g];
    req.base = &phases.plans[g];
    req.signals.time_scale = 1.25;
    req.signals.energy_scale = 1.1;
    req.signals.inter_pass_gap_s = hw::RunPolicy{}.inter_pass_gap_s;
    replans.push_back(req);
  }
  for (int i = 0; i < kRepeats; ++i) {
    double batch_us = 0.0;
    double replan_us = 0.0;
    for (std::size_t b = 0; b < graphs.size(); b += kBatchPlans) {
      const std::size_t n = std::min(kBatchPlans, graphs.size() - b);
      std::vector<core::OptimizationPlan> plans;
      batch_us += span_us(trace, "core", "optimize_batch", [&] {
        plans = d.framework->optimize_batch(
            std::span(graphs).subspan(b, n), &ws);
      });
      for (std::size_t k = 0; k < n; ++k) {
        batch_equal = batch_equal && plans[k] == phases.plans[b + k];
      }
      replan_us += span_us(trace, "core", "replan_batch", [&] {
        (void)d.framework->replan_batch(std::span(replans).subspan(b, n));
      });
    }
    batch_us_per_plan.push_back(batch_us / static_cast<double>(graphs.size()));
    replan_us_per_plan.push_back(replan_us /
                                 static_cast<double>(graphs.size()));
  }
  result.check(batch_equal, "optimize_batch() equals per-graph optimize()");

  // --- serve: signatures and plan-cache hits for every request.
  serve::PlanCache cache;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    cache.preload(serve::graph_signature(*graphs[g]),
                  std::make_shared<const core::OptimizationPlan>(
                      phases.plans[g]));
  }
  const serve::PlanCache::PlanFactory no_compute =
      [](const dnn::Graph&) -> core::OptimizationPlan {
    throw std::logic_error("bench_e2e: plan-cache miss on a preloaded cache");
  };
  double signature_us = 0.0;
  double hit_us = 0.0;
  bool hits_equal = true;
  span_us(trace, "serve", "signatures", [&] {
    for (const serve::Task& t : d.tasks) {
      const Clock::time_point start = Clock::now();
      (void)serve::graph_signature(*graphs[t.model_index]);
      signature_us += us_since(start);
    }
  });
  span_us(trace, "serve", "plan_cache_hits", [&] {
    for (const serve::Task& t : d.tasks) {
      const Clock::time_point start = Clock::now();
      const serve::PlanCache::PlanPtr plan =
          cache.get_or_compute(*graphs[t.model_index], no_compute);
      hit_us += us_since(start);
      hits_equal = hits_equal && *plan == phases.plans[t.model_index];
    }
  });
  result.check(hits_equal, "every plan-cache hit returns the model's plan");

  // --- serve: the PowerLens server of a rep at 1 and at all workers.
  const std::vector<serve::ServePolicy> powerlens_only = {
      serve::ServePolicy::kPowerLens};
  std::vector<double> serve1_s;
  std::vector<double> serve_w_s;
  std::vector<double> journal_ms;
  std::vector<double> residuals_ms;
  RepOutput rep_w;
  bool workers_invisible = true;
  for (int i = 0; i < kRepeats; ++i) {
    RepOutput rep1;
    span_us(trace, "serve", "serve_1_worker", [&] {
      rep1 = run_rep(d, prepare_rep(d, powerlens_only), 1);
    });
    serve1_s.push_back(rep1.seconds);
    span_us(trace, "serve", "serve_all_workers", [&] {
      rep_w = run_rep(d, prepare_rep(d, powerlens_only), workers);
    });
    serve_w_s.push_back(rep_w.seconds);
    journal_ms.push_back(rep_w.journal_export_ms);
    residuals_ms.push_back(rep_w.residuals_export_ms);
    workers_invisible =
        workers_invisible && rep1.fingerprint == rep_w.fingerprint;
    result.attempted += rep1.tasks + rep_w.tasks;
    result.failed += rep1.failed + rep_w.failed;
  }
  result.check(workers_invisible,
               "1 worker reproduces the all-worker report and journal");
  const serve::ServeReport& report = rep_w.reports.front();

  // --- hw: every request's simulator runs, fault-free and as served.
  hw::SimEngine engine(platform);
  baselines::OndemandGovernor cpu_governor;
  double sim_us = 0.0;
  double faulty_us = 0.0;
  double passes = 0.0;
  bool attempts_match = true;
  // With adaptation on, requests after the first epoch may run a re-planned
  // schedule this replay does not know; their attempts are timed, not
  // compared.
  const serve::ServerConfig served_config = server_config(
      d, serve::ServePolicy::kPowerLens, workers, nullptr, nullptr);
  const std::size_t comparable_tasks = served_config.adapt_enabled
                                           ? served_config.adapt_epoch_tasks
                                           : tasks;
  for (std::size_t i = 0; i < tasks; ++i) {
    const serve::Task& t = d.tasks[i];
    const dnn::Graph& graph = *graphs[t.model_index];
    const core::OptimizationPlan& plan = phases.plans[t.model_index];
    hw::RunPolicy policy = engine.default_policy();
    policy.schedule = &plan.schedule;
    policy.governor = &cpu_governor;
    sim_us += span_us(trace, "hw", "sim_run",
                      [&] { (void)engine.run(graph, t.passes, policy); });
    passes += t.passes;

    const std::vector<serve::AttemptRecord>& attempts =
        report.outcomes[i].attempts;
    for (std::size_t a = 0; a < attempts.size(); ++a) {
      hw::RunPolicy served = engine.default_policy();
      std::optional<fault::FaultInjector> injector;
      if (d.faults.active()) {
        injector.emplace(d.faults,
                         fault::request_fault_seed(d.faults.seed, t.id, a));
        served.faults = &*injector;
      }
      if (!attempts[a].pinned) {
        served.schedule = &plan.schedule;
        served.governor = &cpu_governor;
      }
      hw::ExecutionResult r;
      faulty_us += span_us(trace, "hw", "sim_faulty_run",
                           [&] { r = engine.run(graph, t.passes, served); });
      if (i < comparable_tasks) {
        attempts_match = attempts_match &&
                         r.time_s == attempts[a].time_s &&
                         r.energy_j == attempts[a].energy_j;
      }
    }
  }
  result.check(attempts_match,
               "replayed simulator runs equal the server's attempts");

  // --- baselines: the reactive governors over the whole stream.
  std::vector<hw::WorkItem> items;
  for (const serve::Task& t : d.tasks) {
    items.push_back({graphs[t.model_index], t.passes});
  }
  const auto reactive_us = [&](std::string_view call, hw::Governor& governor) {
    hw::RunPolicy policy = engine.default_policy();
    policy.governor = &governor;
    std::optional<fault::FaultInjector> injector;
    if (d.faults.active()) {
      injector.emplace(d.faults, fault::reactive_fault_seed(d.faults.seed));
      policy.faults = &*injector;
    }
    return span_us(trace, "baselines", call,
                   [&] { (void)engine.run_workload(items, policy); });
  };
  baselines::OndemandGovernor bim;
  baselines::FpgGovernor fpg_g(baselines::FpgMode::kGpuOnly);
  baselines::FpgGovernor fpg_cg(baselines::FpgMode::kCpuGpu);
  const double bim_us = reactive_us("bim", bim);
  const double fpg_g_us = reactive_us("fpg_g", fpg_g);
  const double fpg_cg_us = reactive_us("fpg_cg", fpg_cg);

  // --- io: the plan snapshot a warm-started server loads.
  std::vector<io::PlanRecord> records;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    records.push_back({serve::graph_signature(*graphs[g]), phases.plans[g]});
  }
  const std::string snapshot_path =
      workdir + "/" + workload_name(workload) + ".replay.plbin";
  io::save_plan_snapshot(snapshot_path, records);
  std::vector<double> load_ms;
  bool snapshot_equal = true;
  for (int i = 0; i < kRepeats; ++i) {
    std::vector<io::PlanRecord> loaded;
    load_ms.push_back(span_us(trace, "io", "snapshot_load", [&] {
                        loaded = io::load_plan_snapshot(snapshot_path);
                      }) /
                      1e3);
    snapshot_equal = snapshot_equal && loaded == records;
  }
  result.check(snapshot_equal, "the plan snapshot loads back equal");

  // --- bench: untraced against traced reps, alternating.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  bool tracing_invisible = true;
  const Clock::time_point pairs_start = Clock::now();
  while (untraced_s.size() < 2 ||
         (untraced_s.size() < kMaxTracePairs && !smoke &&
          seconds_since(pairs_start) < seconds / 2.0)) {
    const RepOutput plain = run_rep(d, prepare_rep(d), workers);
    RepOutput traced;
    span_us(trace, "bench", "traced_rep", [&] {
      traced = run_rep(d, prepare_rep(d), workers, &trace);
    });
    untraced_s.push_back(plain.seconds);
    traced_s.push_back(traced.seconds);
    tracing_invisible =
        tracing_invisible && plain.fingerprint == traced.fingerprint;
    result.attempted += plain.tasks + traced.tasks;
    result.failed += plain.failed + traced.failed;
  }
  result.check(tracing_invisible, "tracing leaves the report bytes unchanged");

  // serve() self time: the 1-worker serve minus its replayed children (the
  // simulator runs as served, one cache resolution per request, each cold
  // plan, and the exports). Only cold_admit's server starts without plans,
  // and its rep requests every model once.
  double cold_us = 0.0;
  if (report.plan_cache_misses > 0) {
    for (const double us : phases.optimize_us) cold_us += us;
  }
  const double children_us = faulty_us + hit_us + cold_us +
                             (median(journal_ms) + median(residuals_ms)) * 1e3;
  const double n = static_cast<double>(tasks);
  const double resolved =
      static_cast<double>(report.plan_cache_hits + report.plan_cache_misses);

  result.add("core.dataset_gen_s", dataset_gen_s, "s");
  result.add("core.train_s", train_s, "s");
  result.add("core.optimize_batch_us_per_plan", median(batch_us_per_plan),
             "us");
  result.add("core.replan_batch_us_per_plan", median(replan_us_per_plan),
             "us");
  result.add("core.decide_us_p50", quantile(phases.self_us, 0.5), "us");
  result.add("features.extract_us_p50", quantile(phases.features_us, 0.5),
             "us");
  result.add("hw.cost_table_us_p50", quantile(phases.cost_table_us, 0.5),
             "us");
  result.add("hw.sim_run_us_per_task", sim_us / n, "us");
  result.add("hw.sim_run_us_per_pass", sim_us / passes, "us");
  result.add("hw.sim_faulty_run_us_per_task", faulty_us / n, "us");
  result.add("hw.dvfs_transitions_per_task",
             static_cast<double>(report.dvfs_transitions) / n, "count");
  result.add("clustering.distance_us_p50", quantile(phases.distance_us, 0.5),
             "us");
  result.add("clustering.distance_us_p99", quantile(phases.distance_us, 0.99),
             "us");
  result.add("clustering.dbscan_us_p50", quantile(phases.dbscan_us, 0.5),
             "us");
  result.add("baselines.bim_us_per_task", bim_us / n, "us");
  result.add("baselines.fpg_g_us_per_task", fpg_g_us / n, "us");
  result.add("baselines.fpg_cg_us_per_task", fpg_cg_us / n, "us");
  result.add("serve.stream_generate_ms", median(stream_ms), "ms");
  result.add("serve.signature_us", signature_us / n, "us");
  result.add("serve.plan_cache_hit_us", hit_us / n, "us");
  result.add("serve.plan_cache_hit_ratio",
             resolved > 0.0
                 ? static_cast<double>(report.plan_cache_hits) / resolved
                 : 0.0,
             "ratio");
  result.add("serve.plan_cache_misses",
             static_cast<double>(report.plan_cache_misses), "count");
  result.add("serve.plan_cache_evictions",
             static_cast<double>(rep_w.cache_evictions), "count");
  result.add("serve.overhead_us_per_task",
             (median(serve1_s) * 1e6 - children_us) / n, "us");
  result.add("serve.parallel_efficiency",
             median(serve1_s) /
                 (static_cast<double>(workers) * median(serve_w_s)),
             "ratio");
  result.add("serve.adapt_epochs", static_cast<double>(rep_w.adapt_epochs),
             "count");
  result.add("serve.adapt_replans", static_cast<double>(rep_w.adapt_replans),
             "count");
  result.add("serve.adapt_retrain_rounds",
             static_cast<double>(rep_w.adapt_retrain_rounds), "count");
  result.add("serve.adapt_model_swaps",
             static_cast<double>(rep_w.adapt_model_swaps), "count");
  result.add("serve.retries_per_task", static_cast<double>(report.retries) / n,
             "count");
  result.add("serve.fallback_ratio", static_cast<double>(report.fallbacks) / n,
             "ratio");
  result.add("obs.journal_export_ms", median(journal_ms), "ms");
  result.add("obs.residuals_export_ms", median(residuals_ms), "ms");
  result.add("obs.journal_records_per_task",
             static_cast<double>(rep_w.journal_records) / n, "count");
  result.add("io.snapshot_load_ms", median(load_ms), "ms");
  result.add("bench.trace_overhead",
             median(traced_s) / median(untraced_s) - 1.0, "ratio");
  return result;
}

}  // namespace powerlens::bench::e2e
