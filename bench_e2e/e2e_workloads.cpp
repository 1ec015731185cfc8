#include "e2e_workloads.hpp"

#include "dnn/models.hpp"
#include "dnn/random_gen.hpp"
#include "obs/journal.hpp"
#include "obs/residuals.hpp"
#include "serve/adapt.hpp"
#include "serve/signature.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace powerlens::bench::e2e {

namespace {

// Zoo stream shape: 50 images per task (5 passes of kBatch) arriving as a
// Poisson process. A zoo request takes about 17 simulated seconds under
// PowerLens, heavy-tailed up to 112 s, so at 0.02 Hz the device is about a
// third busy. Runs of heavy requests still queue for minutes; the 600 s
// deadline clears the longest latency seen in 1000-request streams over 30
// seeds (463 s), so no request fails.
constexpr int kZooImagesPerTask = 50;
constexpr double kZooRateHz = 0.02;
constexpr double kZooDeadlineS = 600.0;
// fault_adapt's faults stretch a request about 1.6x and add retries, so its
// stream arrives at half the rate with a longer deadline (the longest
// latency in 1000-request streams over 12 seeds was 642 s).
constexpr double kFaultRateHz = 0.01;
constexpr double kFaultDeadlineS = 900.0;

// cold_admit serves one pass per task: the work is admitting the model, not
// running it. Its stream arrives all at once and carries no deadline.
constexpr int kColdImagesPerTask = static_cast<int>(kBatch);
// The random-graph population is part of the deployment, like the zoo, so
// it is the same for every --seed. (A per-seed population moved plan latency
// by about 10% between seeds.)
constexpr std::uint64_t kPopulationSeed = 2025;

// Sub-streams split off --seed: fault injection and the model order.
constexpr std::uint64_t kFaultStream = 1;
constexpr std::uint64_t kOrderStream = 2;

// fault_adapt's hardware: occasional sticky DVFS actuation failures, thermal
// throttling, and near-permanent 1.6x layer latency inflation, which drives
// the residual drift the adaptation loop corrects.
constexpr std::string_view kFaultSpec =
    "dvfs=0.05,sticky=0.2,thermal=0.02,latency=0.9,latency_x=1.6";
constexpr std::size_t kAdaptEpochTasks = 32;
constexpr std::size_t kAdaptRetrainMinRows = 8;

bool is_zoo(Workload w) noexcept { return w != Workload::kColdAdmit; }

}  // namespace

const char* workload_name(Workload workload) noexcept {
  switch (workload) {
    case Workload::kSteadyZoo: return "steady_zoo";
    case Workload::kColdAdmit: return "cold_admit";
    case Workload::kFaultAdapt: return "fault_adapt";
    case Workload::kPolicySweep: return "policy_sweep";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) noexcept {
  for (const Workload w : kAllWorkloads) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

void stratify_models(std::vector<serve::Task>& tasks, std::size_t models,
                     std::uint64_t seed) {
  const std::uint64_t order_seed = util::split_seed(seed, kOrderStream);
  std::uint64_t draws = 0;
  std::vector<std::size_t> block(models);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (i % models == 0) {
      std::iota(block.begin(), block.end(), std::size_t{0});
      for (std::size_t j = models - 1; j > 0; --j) {
        std::swap(block[j], block[util::split_seed(order_seed, draws++) %
                                  (j + 1)]);
      }
    }
    tasks[i].model_index = block[i % models];
  }
}

Shape shape_of(Workload workload, bool smoke) noexcept {
  Shape s;
  s.networks = smoke ? 60 : 300;
  switch (workload) {
    // Zoo sizes are whole blocks of the 12 models; cold_admit's rep is one
    // block of its population.
    case Workload::kSteadyZoo:
      s.tasks = smoke ? 36 : 768;
      s.outcome_tasks = smoke ? 72 : 15996;
      s.plan_calls = smoke ? 3 : 63;
      break;
    case Workload::kFaultAdapt:
      s.tasks = smoke ? 36 : 576;
      s.outcome_tasks = smoke ? 72 : 15996;
      s.plan_calls = smoke ? 3 : 63;
      break;
    case Workload::kColdAdmit:
      s.random_graphs = smoke ? 28 : 238;
      s.tasks = s.random_graphs + 12;
      s.outcome_tasks = 16 * s.tasks;
      s.plan_calls = smoke ? 3 : 15;
      break;
    case Workload::kPolicySweep:
      s.tasks = smoke ? 36 : 156;
      s.outcome_tasks = smoke ? 72 : 15996;
      s.plan_calls = smoke ? 3 : 63;
      break;
  }
  return s;
}

core::PowerLensConfig offline_config(const Shape& shape) {
  core::PowerLensConfig config;
  config.dataset.num_networks = shape.networks;
  config.dataset.seed = 2024;
  config.train_hyper.epochs = 60;
  config.train_decision.epochs = 60;
  config.parallel.num_threads = serve_workers();
  return config;
}

std::size_t serve_workers() noexcept {
  const std::size_t cores = std::thread::hardware_concurrency();
  return cores > 3 ? 2 : 1;
}

Deployment set_up(Workload workload, std::uint64_t seed, bool smoke,
                  const hw::Platform& platform, const std::string& workdir) {
  Deployment d;
  d.workload = workload;
  d.shape = shape_of(workload, smoke);
  d.platform = &platform;

  d.framework =
      std::make_unique<core::PowerLens>(platform, offline_config(d.shape));
  d.framework->train();

  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    d.models.push_back({std::string(spec.name), spec.build(kBatch)});
  }
  if (workload == Workload::kColdAdmit) {
    dnn::RandomDnnConfig random_config;
    random_config.batch = kBatch;
    dnn::RandomDnnGenerator generator(kPopulationSeed, random_config);
    for (std::size_t i = 0; i < d.shape.random_graphs; ++i) {
      dnn::Graph graph = generator.generate();
      std::string name = graph.name();
      d.models.push_back({std::move(name), std::move(graph)});
    }
  }

  d.stream.seed = seed;
  d.stream.num_tasks = d.shape.outcome_tasks;
  d.stream.batch = kBatch;
  const bool faulty = workload == Workload::kFaultAdapt;
  if (is_zoo(workload)) {
    d.stream.arrivals = serve::ArrivalProcess::kPoisson;
    d.stream.arrival_rate_hz = faulty ? kFaultRateHz : kZooRateHz;
    d.stream.images_per_task = kZooImagesPerTask;
    d.stream.deadline_s = faulty ? kFaultDeadlineS : kZooDeadlineS;
  } else {
    d.stream.arrivals = serve::ArrivalProcess::kClosedLoop;
    d.stream.images_per_task = kColdImagesPerTask;
  }
  d.outcome_tasks = serve::RequestStream(d.models.size(), d.stream).generate();
  stratify_models(d.outcome_tasks, d.models.size(), seed);
  d.tasks.assign(d.outcome_tasks.begin(),
                 d.outcome_tasks.begin() + d.shape.tasks);

  if (faulty) {
    d.faults = fault::FaultSpec::parse(kFaultSpec);
    d.faults.seed = util::split_seed(seed, kFaultStream);
  }

  if (is_zoo(workload)) {
    linalg::Workspace ws;
    for (const serve::DeployedModel& m : d.models) {
      d.plans.push_back({serve::graph_signature(m.graph),
                         d.framework->optimize(m.graph, &ws)});
    }
    d.snapshot_path = workdir + "/" + workload_name(workload) + ".plans.plbin";
    io::save_plan_snapshot(d.snapshot_path, d.plans);
  }
  return d;
}

std::vector<serve::ServePolicy> rep_policies(Workload workload) {
  if (workload == Workload::kPolicySweep) {
    return {serve::ServePolicy::kPowerLens, serve::ServePolicy::kMaxn,
            serve::ServePolicy::kBiM, serve::ServePolicy::kFpgG,
            serve::ServePolicy::kFpgCG};
  }
  return {serve::ServePolicy::kPowerLens};
}

serve::ServerConfig server_config(const Deployment& d,
                                  serve::ServePolicy policy,
                                  std::size_t workers, obs::Journal* journal,
                                  obs::Residuals* residuals) {
  serve::ServerConfig config;
  config.policy = policy;
  config.num_workers = workers;
  config.journal = journal;
  config.residuals = residuals;
  config.faults = d.faults;
  if (d.workload == Workload::kFaultAdapt &&
      policy == serve::ServePolicy::kPowerLens) {
    config.adapt_enabled = true;
    config.adapt_epoch_tasks = kAdaptEpochTasks;
    config.adapt_retrain = true;
    config.adapt_retrain_min_rows = kAdaptRetrainMinRows;
  }
  return config;
}

void warm_plans(const Deployment& d, serve::Server& server) {
  if (d.workload == Workload::kSteadyZoo) {
    const std::size_t installed =
        server.warm_start_from_snapshot(d.snapshot_path);
    if (installed != d.plans.size()) {
      throw std::runtime_error("bench_e2e: snapshot warm start installed " +
                               std::to_string(installed) + " of " +
                               std::to_string(d.plans.size()) + " plans");
    }
    return;
  }
  for (const io::PlanRecord& record : d.plans) {
    server.plan_cache().preload(
        record.graph_signature,
        std::make_shared<const core::OptimizationPlan>(record.plan));
  }
}

RepInputs prepare_rep(const Deployment& d) {
  return prepare_rep(d, rep_policies(d.workload));
}

RepInputs prepare_rep(const Deployment& d,
                      std::vector<serve::ServePolicy> policies) {
  RepInputs inputs;
  inputs.models.assign(policies.size(), d.models);
  inputs.policies = std::move(policies);
  return inputs;
}

RepOutput run_rep(const Deployment& d, RepInputs inputs, std::size_t workers,
                  obs::TraceWriter* trace) {
  RepOutput out;
  for (std::size_t i = 0; i < inputs.policies.size(); ++i) {
    const serve::ServePolicy policy = inputs.policies[i];
    const bool planned = policy == serve::ServePolicy::kPowerLens;
    obs::Journal journal;
    obs::Residuals residuals;
    serve::ServerConfig config =
        server_config(d, policy, workers, &journal, &residuals);
    // Reactive servers would also forward the trace into their continuous
    // simulator run (one event per simulated layer); only plan-policy
    // servers trace, and only their per-request spans.
    if (serve::is_plan_policy(policy)) config.trace = trace;

    // Timed: server start, serve, report and exports. The server's teardown
    // at the end of this iteration is not.
    const Clock::time_point start = Clock::now();
    serve::Server server(*d.platform, std::move(inputs.models[i]), config,
                         d.framework.get());
    if (planned) warm_plans(d, server);
    serve::ServeReport report = server.serve(std::span(d.tasks));
    std::ostringstream json;
    report.write_json(json);
    out.fingerprint += json.str();
    const Clock::time_point journal_start = Clock::now();
    out.fingerprint += journal.jsonl();
    const Clock::time_point residuals_start = Clock::now();
    out.fingerprint += residuals.json();
    const Clock::time_point stop = Clock::now();
    out.seconds += std::chrono::duration<double>(stop - start).count();
    out.journal_export_ms += std::chrono::duration<double, std::milli>(
                                 residuals_start - journal_start)
                                 .count();
    out.residuals_export_ms +=
        std::chrono::duration<double, std::milli>(stop - residuals_start)
            .count();

    out.journal_records += journal.appended();
    if (planned) {
      out.cached_plans = server.plan_cache().snapshot();
      out.cache_evictions = server.plan_cache().evictions();
      if (const serve::AdaptController* adapt = server.adapt_controller()) {
        out.adapt_epochs = adapt->epochs();
        out.adapt_replans = adapt->replans();
        out.adapt_retrain_rounds = adapt->retrain_rounds();
        out.adapt_model_swaps = adapt->model_swaps();
      }
    }
    out.tasks += report.total_tasks;
    out.failed += report.rejected + report.shed + report.deadline_misses;
    out.reports.push_back(std::move(report));
  }
  return out;
}

std::vector<const dnn::Graph*> distinct_graphs(const Deployment& d) {
  std::vector<const dnn::Graph*> graphs;
  graphs.reserve(d.models.size());
  for (const serve::DeployedModel& m : d.models) graphs.push_back(&m.graph);
  return graphs;
}

void RunResult::check(bool ok, const std::string& what) {
  std::printf("CHECK %-66s %s\n", what.c_str(), ok ? "OK" : "FAILED");
  correct = correct && ok;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

}  // namespace powerlens::bench::e2e
