// Server: the serving engine's determinism contract.
//
//  - PowerLens serving equals the direct per-item SimEngine loop of the
//    historical Figure 5 bench, bit for bit — single worker, many workers,
//    cache on, cache off.
//  - Reactive serving equals one continuous run_workload, bit for bit.
//  - Reports are invariant to the host worker count (1/4/8); the TSan CI
//    job runs this same suite to catch data races in the fan-out.
//  - Admission control, deadlines, and error paths behave as documented;
//    a request that fails inside a worker fails serve() without a hang.
//  - A fault-free, untraced serve simulates each distinct (model, plan,
//    passes) run exactly once per call, whatever the worker count; every
//    attempt still equals a direct run bit for bit, and the simulator run
//    metric still counts every attempt.
#include "serve/server.hpp"

#include "baselines/fpg.hpp"
#include "baselines/ondemand.hpp"
#include "core/powerlens.hpp"
#include "dnn/models.hpp"
#include "dnn/random_gen.hpp"
#include "fault/fault_spec.hpp"
#include "hw/sim_engine.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/residuals.hpp"
#include "obs/trace.hpp"
#include "serve/signature.hpp"
#include "support/json_parser.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <string>
#include <vector>

namespace powerlens::serve {
namespace {

constexpr std::int64_t kBatch = 10;

// One trained framework + deployed models for the whole suite (training is
// the expensive part; every test reuses it read-only).
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    platform_ = new hw::Platform(hw::make_tx2());
    core::PowerLensConfig cfg;
    cfg.dataset.num_networks = 40;
    cfg.dataset.seed = 5;
    cfg.train_hyper.epochs = 20;
    cfg.train_decision.epochs = 20;
    framework_ = new core::PowerLens(*platform_, cfg);
    framework_->train();

    models_ = new std::vector<DeployedModel>;
    for (const char* name : {"alexnet", "mobilenet_v3", "googlenet"}) {
      models_->push_back({name, dnn::make_model(name, kBatch)});
    }
  }
  static void TearDownTestSuite() {
    delete models_;
    delete framework_;
    delete platform_;
    models_ = nullptr;
    framework_ = nullptr;
    platform_ = nullptr;
  }

  static RequestStreamConfig stream_config(std::size_t tasks = 12) {
    RequestStreamConfig cfg;
    cfg.seed = 7;
    cfg.num_tasks = tasks;
    cfg.images_per_task = 20;  // 2 passes per task
    cfg.batch = kBatch;
    return cfg;
  }

  static ServeReport serve_with(ServePolicy policy, std::size_t workers,
                                bool cache = true,
                                std::size_t admission = 0,
                                std::size_t tasks = 12) {
    ServerConfig cfg;
    cfg.policy = policy;
    cfg.num_workers = workers;
    cfg.use_plan_cache = cache;
    cfg.admission_capacity = admission;
    Server server(*platform_, *models_, cfg, framework_);
    return server.serve(RequestStream(models_->size(), stream_config(tasks)));
  }

  static void expect_identical(const ServeReport& a, const ServeReport& b) {
    EXPECT_EQ(a.energy_j, b.energy_j);  // bitwise, not NEAR
    EXPECT_EQ(a.busy_s, b.busy_s);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.images, b.images);
    EXPECT_EQ(a.dvfs_transitions, b.dvfs_transitions);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.latency_p99_s, b.latency_p99_s);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].start_s, b.outcomes[i].start_s);
      EXPECT_EQ(a.outcomes[i].finish_s, b.outcomes[i].finish_s);
      EXPECT_EQ(a.outcomes[i].energy_j, b.outcomes[i].energy_j);
    }
  }

  // Every deployed model requested eight times, at 1, 2 and 3 passes, so
  // each (model, passes) pair repeats.
  static std::vector<Task> repeated_tasks() {
    std::vector<Task> tasks(24);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      tasks[i].id = i;
      tasks[i].model_index = i % models_->size();
      tasks[i].passes = 1 + static_cast<int>((i / models_->size()) % 3);
    }
    return tasks;
  }

  // Each outcome's single attempt equals a direct engine.run of its task,
  // under the plan resident in `server`'s cache (PowerLens) or pinned at
  // MAXN, bit for bit.
  static void expect_attempts_equal_direct_runs(Server& server,
                                                ServePolicy policy,
                                                std::span<const Task> tasks,
                                                const ServeReport& report) {
    hw::SimEngine engine(*platform_);
    baselines::OndemandGovernor cpu_governor;
    ASSERT_EQ(report.outcomes.size(), tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const Task& task = tasks[i];
      const dnn::Graph& graph = (*models_)[task.model_index].graph;
      hw::RunPolicy run_policy = engine.default_policy();
      PlanCache::PlanPtr plan;
      if (policy == ServePolicy::kPowerLens) {
        plan = server.plan_cache().lookup(graph_signature(graph));
        ASSERT_NE(plan, nullptr) << i;
        run_policy.schedule = &plan->schedule;
        run_policy.governor = &cpu_governor;
      }
      const hw::ExecutionResult r = engine.run(graph, task.passes, run_policy);
      const std::vector<AttemptRecord>& attempts = report.outcomes[i].attempts;
      ASSERT_EQ(attempts.size(), 1u) << i;
      const AttemptRecord& a = attempts.front();
      EXPECT_EQ(a.time_s, r.time_s) << i;  // bitwise, not NEAR
      EXPECT_EQ(a.energy_j, r.energy_j) << i;
      EXPECT_EQ(a.mean_power_w, r.telemetry_mean_power_w) << i;
      EXPECT_EQ(a.peak_power_w, r.telemetry_peak_power_w) << i;
      EXPECT_EQ(a.dvfs_stall_s, r.dvfs_stall_s) << i;
      EXPECT_EQ(a.throttled_s, r.thermal_throttled_s) << i;
      EXPECT_EQ(a.dvfs_transitions, r.dvfs_transitions) << i;
      EXPECT_EQ(a.backoff_s, 0.0) << i;
      EXPECT_FALSE(a.degraded) << i;
      EXPECT_EQ(a.pinned, policy == ServePolicy::kMaxn) << i;
      EXPECT_EQ(report.outcomes[i].images, r.images) << i;
    }
  }

  static double sim_runs_total() {
    return obs::global_metrics()
        .counter("powerlens_sim_runs_total", "simulator runs")
        .value();
  }

  static hw::Platform* platform_;
  static core::PowerLens* framework_;
  static std::vector<DeployedModel>* models_;
};

hw::Platform* ServerTest::platform_ = nullptr;
core::PowerLens* ServerTest::framework_ = nullptr;
std::vector<DeployedModel>* ServerTest::models_ = nullptr;

// --- the Figure 5 equivalence acceptance criterion ---

TEST_F(ServerTest, PowerLensServingEqualsDirectSimEngineLoop) {
  const std::vector<Task> tasks =
      RequestStream(models_->size(), stream_config()).generate();

  // The historical bench structure: one plan per model, one engine, one CPU
  // ondemand governor across the loop, totals accumulated in task order.
  hw::SimEngine engine(*platform_);
  std::vector<core::OptimizationPlan> plans;
  for (const DeployedModel& m : *models_) {
    plans.push_back(framework_->optimize(m.graph));
  }
  double energy = 0.0, time = 0.0;
  std::int64_t images = 0;
  std::size_t transitions = 0;
  baselines::OndemandGovernor cpu_governor;
  std::vector<hw::ExecutionResult> direct;
  for (const Task& task : tasks) {
    hw::RunPolicy policy = engine.default_policy();
    policy.schedule = &plans[task.model_index].schedule;
    policy.governor = &cpu_governor;
    const hw::ExecutionResult r =
        engine.run(models_->at(task.model_index).graph, task.passes, policy);
    time += r.time_s;
    energy += r.energy_j;
    images += r.images;
    transitions += r.dvfs_transitions;
    direct.push_back(r);
  }

  for (const bool cache : {true, false}) {
    const ServeReport report =
        serve_with(ServePolicy::kPowerLens, /*workers=*/1, cache);
    EXPECT_EQ(report.energy_j, energy) << "cache=" << cache;
    EXPECT_EQ(report.busy_s, time) << "cache=" << cache;
    EXPECT_EQ(report.images, images);
    EXPECT_EQ(report.dvfs_transitions, transitions);
    ASSERT_EQ(report.outcomes.size(), tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(report.outcomes[i].service_s, direct[i].time_s) << i;
      EXPECT_EQ(report.outcomes[i].energy_j, direct[i].energy_j) << i;
    }
  }
}

TEST_F(ServerTest, ReactiveServingEqualsContinuousRunWorkload) {
  const std::vector<Task> tasks =
      RequestStream(models_->size(), stream_config()).generate();

  std::vector<hw::WorkItem> items;
  for (const Task& task : tasks) {
    items.push_back({&models_->at(task.model_index).graph, task.passes});
  }
  hw::SimEngine engine(*platform_);

  const auto run_direct = [&](hw::Governor& governor) {
    hw::RunPolicy policy = engine.default_policy();
    policy.governor = &governor;
    return engine.run_workload(items, policy);
  };

  {
    baselines::OndemandGovernor g;
    const hw::ExecutionResult direct = run_direct(g);
    const ServeReport report = serve_with(ServePolicy::kBiM, 4);
    EXPECT_EQ(report.energy_j, direct.energy_j);
    EXPECT_EQ(report.busy_s, direct.time_s);
    EXPECT_EQ(report.makespan_s, direct.time_s);  // closed loop, no idle
    EXPECT_EQ(report.images, direct.images);
    EXPECT_EQ(report.dvfs_transitions, direct.dvfs_transitions);
  }
  {
    baselines::FpgGovernor g(baselines::FpgMode::kGpuOnly);
    const hw::ExecutionResult direct = run_direct(g);
    const ServeReport report = serve_with(ServePolicy::kFpgG, 1);
    EXPECT_EQ(report.energy_j, direct.energy_j);
    EXPECT_EQ(report.busy_s, direct.time_s);
  }
  {
    baselines::FpgGovernor g(baselines::FpgMode::kCpuGpu);
    const hw::ExecutionResult direct = run_direct(g);
    const ServeReport report = serve_with(ServePolicy::kFpgCG, 1);
    EXPECT_EQ(report.energy_j, direct.energy_j);
    EXPECT_EQ(report.busy_s, direct.time_s);
  }
}

// --- worker-count invariance (also the TSan surface) ---

TEST_F(ServerTest, ReportsInvariantToWorkerCount) {
  const ServeReport one = serve_with(ServePolicy::kPowerLens, 1);
  const ServeReport four = serve_with(ServePolicy::kPowerLens, 4);
  const ServeReport eight = serve_with(ServePolicy::kPowerLens, 8);
  expect_identical(one, four);
  expect_identical(one, eight);
}

// A cold population: about 40 never-seen graphs, some requested more than
// once, so distinct misses share plan-cache shards and repeated requests
// wait on in-flight computations. At every worker count the report,
// journal and residual bytes match, misses equal the distinct models, and
// every resident plan equals a fresh optimize().
TEST_F(ServerTest, ColdPopulationServeIsWorkerCountInvariant) {
  constexpr std::size_t kModels = 40;
  dnn::RandomDnnGenerator generator(23);
  std::vector<DeployedModel> population;
  for (std::size_t i = 0; i < kModels; ++i) {
    dnn::Graph graph = generator.generate();
    std::string name = graph.name();
    population.push_back({std::move(name), std::move(graph)});
  }
  std::vector<std::uint64_t> sigs;
  for (const DeployedModel& m : population) {
    sigs.push_back(graph_signature(m.graph));
  }
  std::sort(sigs.begin(), sigs.end());
  const std::size_t distinct = static_cast<std::size_t>(
      std::unique(sigs.begin(), sigs.end()) - sigs.begin());

  // Every model once, then every third model again, interleaved so repeats
  // arrive while their first request may still be computing.
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < kModels; ++i) {
    tasks.push_back({.id = tasks.size(), .model_index = i, .passes = 1});
    if (i % 3 == 0) {
      tasks.push_back({.id = tasks.size(), .model_index = i / 2,
                       .passes = 2});
    }
  }

  std::string want_report;
  std::string want_journal;
  std::string want_residuals;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    obs::Journal journal;
    obs::Residuals residuals;
    ServerConfig cfg;
    cfg.policy = ServePolicy::kPowerLens;
    cfg.num_workers = workers;
    cfg.journal = &journal;
    cfg.residuals = &residuals;
    Server server(*platform_, population, cfg, framework_);
    const ServeReport report = server.serve(tasks);
    EXPECT_EQ(report.plan_cache_misses, distinct);
    EXPECT_EQ(report.plan_cache_hits, tasks.size() - distinct);
    for (const DeployedModel& m : population) {
      const PlanCache::PlanPtr plan =
          server.plan_cache().lookup(graph_signature(m.graph));
      ASSERT_NE(plan, nullptr) << m.name;
      EXPECT_TRUE(*plan == framework_->optimize(m.graph)) << m.name;
    }

    std::ostringstream os;
    report.write_json(os);
    if (workers == 1) {
      want_report = os.str();
      want_journal = journal.jsonl();
      want_residuals = residuals.json();
      ASSERT_GT(journal.appended(), tasks.size());
      continue;
    }
    EXPECT_EQ(os.str(), want_report);
    EXPECT_EQ(journal.jsonl(), want_journal);
    EXPECT_EQ(residuals.json(), want_residuals);
  }
}

TEST_F(ServerTest, CacheOnOffIdenticalResults) {
  const ServeReport on = serve_with(ServePolicy::kPowerLens, 4, true);
  const ServeReport off = serve_with(ServePolicy::kPowerLens, 4, false);
  expect_identical(on, off);
  EXPECT_EQ(off.plan_cache_hits, 0u);
  EXPECT_EQ(off.plan_cache_misses, 0u);
}

TEST_F(ServerTest, CacheCountersAreDeterministic) {
  // 12 tasks over 3 models, seed 7 touches all of them: misses = distinct
  // models, hits = the rest — whatever the worker count.
  for (const std::size_t workers : {1u, 4u, 8u}) {
    const ServeReport r = serve_with(ServePolicy::kPowerLens, workers);
    EXPECT_EQ(r.plan_cache_misses, models_->size()) << workers;
    EXPECT_EQ(r.plan_cache_hits, 12u - models_->size()) << workers;
  }
}

// Regression: the bounded plan cache split its capacity over 8 signature
// shards, so a working set that fit the global bound still thrashed
// whenever two models hashed to one small slice. A cache that holds every
// deployed model must plan each exactly once.
TEST_F(ServerTest, BoundedCacheHoldingEveryModelMissesOncePerModel) {
  std::vector<DeployedModel> zoo;
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    zoo.push_back({std::string(spec.name), spec.build(kBatch)});
  }
  std::vector<Task> tasks(3 * zoo.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].id = i;
    tasks[i].model_index = i % zoo.size();
  }
  for (const std::size_t workers : {1u, 4u}) {
    ServerConfig cfg;
    cfg.policy = ServePolicy::kPowerLens;
    cfg.num_workers = workers;
    cfg.plan_cache_capacity = zoo.size();
    Server server(*platform_, zoo, cfg, framework_);
    const ServeReport r = server.serve(tasks);
    EXPECT_EQ(r.plan_cache_misses, zoo.size()) << workers;
    EXPECT_EQ(r.plan_cache_hits, tasks.size() - zoo.size()) << workers;
    EXPECT_EQ(server.plan_cache().evictions(), 0u) << workers;
  }
}

TEST_F(ServerTest, AdaptationRejectsABoundedPlanCache) {
  // An evicted re-plan would come back as a cold plan, so with a bounded
  // cache the served plans, and the energy, would depend on which plans the
  // workers' access order evicts.
  ServerConfig cfg;
  cfg.policy = ServePolicy::kPowerLens;
  cfg.adapt_enabled = true;
  cfg.plan_cache_capacity = 5;
  EXPECT_THROW(Server(*platform_, *models_, cfg, framework_),
               std::invalid_argument);
  cfg.plan_cache_capacity = 0;
  EXPECT_NO_THROW(Server(*platform_, *models_, cfg, framework_));
}

TEST_F(ServerTest, MaxnNeedsNoFramework) {
  ServerConfig cfg;
  cfg.policy = ServePolicy::kMaxn;
  cfg.num_workers = 4;
  Server server(*platform_, *models_, cfg, /*framework=*/nullptr);
  const ServeReport r =
      server.serve(RequestStream(models_->size(), stream_config()));
  EXPECT_EQ(r.admitted, 12u);
  EXPECT_GT(r.energy_j, 0.0);
  // MAXN burns the most power of all policies on the same workload.
  const ServeReport pl = serve_with(ServePolicy::kPowerLens, 4);
  EXPECT_GT(r.energy_j, pl.energy_j);
}

// --- repeated runs (the per-worker run memo) ---

TEST_F(ServerTest, RepeatedRunsEqualDirectRunsAtEveryWorkerCount) {
  const std::vector<Task> tasks = repeated_tasks();
  for (const ServePolicy policy : {ServePolicy::kPowerLens,
                                   ServePolicy::kMaxn}) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(policy_name(policy)) + ", " +
                   std::to_string(workers) + " workers");
      ServerConfig cfg;
      cfg.policy = policy;
      cfg.num_workers = workers;
      Server server(*platform_, *models_, cfg, framework_);
      const ServeReport report = server.serve(tasks);
      expect_attempts_equal_direct_runs(server, policy, tasks, report);
    }
  }
}

TEST_F(ServerTest, SimRunCounterCountsEveryServedAttempt) {
  const std::vector<Task> tasks = repeated_tasks();
  for (const ServePolicy policy : {ServePolicy::kPowerLens,
                                   ServePolicy::kMaxn}) {
    ServerConfig cfg;
    cfg.policy = policy;
    cfg.num_workers = 2;
    Server server(*platform_, *models_, cfg, framework_);
    const double before = sim_runs_total();
    const ServeReport report = server.serve(tasks);
    std::size_t attempts = 0;
    for (const RequestOutcome& o : report.outcomes) {
      attempts += o.attempts.size();
    }
    EXPECT_EQ(attempts, tasks.size());
    EXPECT_EQ(sim_runs_total() - before, static_cast<double>(attempts))
        << policy_name(policy);
  }
}

TEST_F(ServerTest, WarmServeSimulatesEachDistinctKeyOncePerCall) {
  // repeated_tasks() asks for every (model, passes) pair of 3 models and
  // 1..3 passes, so K = 9 distinct keys among 24 requests.
  const std::vector<Task> tasks = repeated_tasks();
  constexpr std::uint64_t kDistinct = 9;
  for (const ServePolicy policy : {ServePolicy::kPowerLens,
                                   ServePolicy::kMaxn}) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(policy_name(policy)) + ", " +
                   std::to_string(workers) + " workers");
      ServerConfig cfg;
      cfg.policy = policy;
      cfg.num_workers = workers;
      Server server(*platform_, *models_, cfg, framework_);
      // The memo lives for one call: a second serve() simulates again.
      for (int call = 0; call < 2; ++call) {
        const std::uint64_t runs = server.sim_runs();
        const std::uint64_t reuses = server.memo_reuses();
        (void)server.serve(tasks);
        EXPECT_EQ(server.sim_runs() - runs, kDistinct) << "call " << call;
        EXPECT_EQ(server.memo_reuses() - reuses, tasks.size() - kDistinct)
            << "call " << call;
      }
    }
  }
}

TEST_F(ServerTest, MemoizedJournalEqualsPerRequestRendering) {
  // An untraced fault-free serve renders each memo entry's journal
  // fragments once and shares them; a traced serve bypasses the memo, so
  // every record renders from its own request. Served, rejected and shed
  // records, their residuals and the report must read the same.
  RequestStreamConfig sc = stream_config(48);
  sc.arrivals = ArrivalProcess::kPoisson;
  sc.arrival_rate_hz = 20.0;
  sc.deadline_s = 0.5;
  const RequestStream stream(models_->size(), sc);
  const auto exports = [&](bool traced, std::size_t workers) {
    const std::string path =
        testing::TempDir() + "server_test_memo_journal_trace.json";
    if (traced) {
      EXPECT_TRUE(obs::default_trace().open(path));
    }
    ServerConfig cfg;
    cfg.policy = ServePolicy::kPowerLens;
    cfg.num_workers = workers;
    cfg.admission_capacity = 3;
    cfg.degrade.shed_doomed = true;
    obs::Journal journal;
    obs::Residuals residuals;
    cfg.journal = &journal;
    cfg.residuals = &residuals;
    Server server(*platform_, *models_, cfg, framework_);
    const ServeReport report = server.serve(stream);
    if (traced) {
      obs::default_trace().close();
      std::remove(path.c_str());
    }
    EXPECT_GT(report.rejected, 0u);
    EXPECT_GT(report.shed, 0u);
    EXPECT_GT(report.admitted, 0u);
    EXPECT_EQ(server.memo_reuses() == 0, traced);
    std::ostringstream os;
    report.write_json(os);
    return os.str() + journal.jsonl() + residuals.json();
  };
  const std::string per_request = exports(/*traced=*/true, 1);
  for (const std::size_t workers : {1u, 4u}) {
    EXPECT_EQ(exports(/*traced=*/false, workers), per_request)
        << workers << " workers";
  }
}

TEST_F(ServerTest, ReactiveServeIsOneSimulatorRun) {
  ServerConfig cfg;
  cfg.policy = ServePolicy::kBiM;
  Server server(*platform_, *models_, cfg, nullptr);
  (void)server.serve(repeated_tasks());
  EXPECT_EQ(server.sim_runs(), 1u);
  EXPECT_EQ(server.memo_reuses(), 0u);
}

TEST_F(ServerTest, FaultInjectedServeSimulatesEveryAttempt) {
  // Fault streams are seeded per (task, attempt), so nothing is reused:
  // one simulator run per attempt, retries included.
  ServerConfig cfg;
  cfg.policy = ServePolicy::kPowerLens;
  cfg.num_workers = 2;
  cfg.faults = fault::FaultSpec::parse("dvfs=0.3,seed=11");
  Server server(*platform_, *models_, cfg, framework_);
  const ServeReport report = server.serve(repeated_tasks());
  std::uint64_t attempts = 0;
  for (const RequestOutcome& o : report.outcomes) attempts += o.attempts.size();
  EXPECT_GT(report.retries, 0u);  // the spec bit, so some requests retried
  EXPECT_EQ(server.sim_runs(), attempts);
  EXPECT_EQ(server.memo_reuses(), 0u);
}

TEST_F(ServerTest, TracedServeSimulatesEveryAttempt) {
  // The trace shows each simulated run as its own process, so a traced
  // serve must not reuse runs: one "sim …" process per attempt.
  const std::vector<Task> tasks = repeated_tasks();
  const std::string path = testing::TempDir() + "server_test_memo_trace.json";
  obs::TraceWriter& tw = obs::default_trace();
  ASSERT_TRUE(tw.open(path));
  ServerConfig cfg;
  cfg.policy = ServePolicy::kPowerLens;
  cfg.num_workers = 2;
  Server server(*platform_, *models_, cfg, framework_);
  const double before = sim_runs_total();
  const ServeReport report = server.serve(tasks);
  const double runs = sim_runs_total() - before;
  tw.close();
  std::ifstream file(path);
  std::stringstream text;
  text << file.rdbuf();
  std::remove(path.c_str());

  const std::string label =
      "\"name\":\"sim " + platform_->name + " (PowerLens)\"";
  std::size_t processes = 0;
  for (std::size_t at = text.str().find(label); at != std::string::npos;
       at = text.str().find(label, at + label.size())) {
    ++processes;
  }
  EXPECT_EQ(processes, tasks.size());
  EXPECT_EQ(runs, static_cast<double>(tasks.size()));
  EXPECT_EQ(server.sim_runs(), tasks.size());
  EXPECT_EQ(server.memo_reuses(), 0u);
  expect_attempts_equal_direct_runs(server, cfg.policy, tasks, report);
}

TEST_F(ServerTest, ReinstalledPlanIsServedByTheNextServe) {
  // A plan installed between two serve() calls on one server must drive
  // the second call's runs: no memoized run outlives the call that made it.
  const std::vector<Task> tasks = repeated_tasks();
  ServerConfig cfg;
  cfg.policy = ServePolicy::kPowerLens;
  cfg.num_workers = 2;
  Server server(*platform_, *models_, cfg, framework_);
  const ServeReport first = server.serve(tasks);
  expect_attempts_equal_direct_runs(server, cfg.policy, tasks, first);

  const std::uint64_t sig = graph_signature((*models_)[0].graph);
  core::OptimizationPlan replanned = *server.plan_cache().lookup(sig);
  replanned.schedule.points = {{0, platform_->max_gpu_level() / 2}};
  ASSERT_TRUE(server.plan_cache().install(
      sig, std::make_shared<const core::OptimizationPlan>(replanned)));

  const ServeReport second = server.serve(tasks);
  expect_attempts_equal_direct_runs(server, cfg.policy, tasks, second);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].model_index != 0) continue;
    EXPECT_NE(second.outcomes[i].energy_j, first.outcomes[i].energy_j) << i;
  }
}

// --- timeline semantics ---

TEST_F(ServerTest, ClosedLoopTimelineIsBackToBack) {
  const ServeReport r = serve_with(ServePolicy::kPowerLens, 4);
  double device_free = 0.0;
  for (const RequestOutcome& out : r.outcomes) {
    EXPECT_TRUE(out.admitted);
    EXPECT_EQ(out.start_s, device_free);
    EXPECT_EQ(out.finish_s, out.start_s + out.service_s);
    EXPECT_EQ(out.wait_s, out.start_s);  // all arrivals at t = 0
    device_free = out.finish_s;
  }
  EXPECT_EQ(r.makespan_s, device_free);
  EXPECT_EQ(r.peak_queue_depth, r.outcomes.size());  // backlog at t = 0
}

TEST_F(ServerTest, PoissonArrivalsCanIdleTheDevice) {
  RequestStreamConfig cfg = stream_config();
  cfg.arrivals = ArrivalProcess::kPoisson;
  cfg.arrival_rate_hz = 0.01;  // gaps far exceed service times
  ServerConfig scfg;
  scfg.policy = ServePolicy::kPowerLens;
  scfg.num_workers = 4;
  Server server(*platform_, *models_, scfg, framework_);
  const ServeReport r = server.serve(RequestStream(models_->size(), cfg));
  EXPECT_GT(r.makespan_s, r.busy_s);  // idle gaps stretch the makespan
  for (const RequestOutcome& out : r.outcomes) {
    EXPECT_GE(out.start_s, out.arrival_s);
  }
  // At this rate, requests rarely overlap.
  EXPECT_LE(r.peak_queue_depth, 3u);
}

TEST_F(ServerTest, AdmissionControlShedsLoadDeterministically) {
  const ServeReport unbounded = serve_with(ServePolicy::kPowerLens, 4);
  const ServeReport capped =
      serve_with(ServePolicy::kPowerLens, 4, true, /*admission=*/3);
  // Closed loop: all 12 arrive at t=0; exactly 3 fit in the system.
  EXPECT_EQ(capped.admitted, 3u);
  EXPECT_EQ(capped.rejected, 9u);
  EXPECT_EQ(capped.peak_queue_depth, 3u);
  EXPECT_LT(capped.energy_j, unbounded.energy_j);
  // Identical under a different worker count.
  const ServeReport capped8 =
      serve_with(ServePolicy::kPowerLens, 8, true, /*admission=*/3);
  expect_identical(capped, capped8);
  // Rejected outcomes carry no execution accounting.
  for (const RequestOutcome& out : capped.outcomes) {
    if (!out.admitted) {
      EXPECT_EQ(out.energy_j, 0.0);
      EXPECT_EQ(out.images, 0);
    }
  }
}

TEST_F(ServerTest, DeadlinesAreAccounted) {
  RequestStreamConfig cfg = stream_config();
  cfg.deadline_s = 1e-6;  // nothing can finish this fast
  ServerConfig scfg;
  scfg.policy = ServePolicy::kPowerLens;
  Server server(*platform_, *models_, scfg, framework_);
  const ServeReport all_miss =
      server.serve(RequestStream(models_->size(), cfg));
  EXPECT_EQ(all_miss.deadline_misses, all_miss.admitted);

  cfg.deadline_s = 1e9;  // everything finishes in time
  const ServeReport none_miss =
      server.serve(RequestStream(models_->size(), cfg));
  EXPECT_EQ(none_miss.deadline_misses, 0u);
}

// --- error paths ---

TEST_F(ServerTest, PowerLensWithoutFrameworkThrows) {
  ServerConfig cfg;
  cfg.policy = ServePolicy::kPowerLens;
  Server server(*platform_, *models_, cfg, /*framework=*/nullptr);
  EXPECT_THROW(
      server.serve(RequestStream(models_->size(), stream_config())),
      std::logic_error);
}

TEST_F(ServerTest, FailingRequestMidStreamRethrowsWithoutHanging) {
  // mobilenet_v3's resident plan asks for a GPU level off the ladder, so
  // each of its requests throws std::out_of_range inside a worker while
  // the other models' requests simulate and fold. serve() must stop every
  // worker and rethrow, leaving only the folded prefix in the journal.
  // serve() runs on a helper thread: one that has neither returned nor
  // thrown after a minute is hung, and a hung thread cannot be joined, so
  // the process exits.
  core::OptimizationPlan broken;
  broken.schedule.points = {{0, platform_->gpu_levels()}};
  const auto plan =
      std::make_shared<const core::OptimizationPlan>(std::move(broken));
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ServerConfig cfg;
    cfg.policy = ServePolicy::kPowerLens;
    cfg.num_workers = workers;
    obs::Journal journal;
    cfg.journal = &journal;
    Server server(*platform_, *models_, cfg, framework_);
    ASSERT_TRUE(server.plan_cache().preload(
        graph_signature((*models_)[1].graph), plan));
    std::packaged_task<void()> serve([&] {
      server.serve(
          RequestStream(models_->size(), stream_config(/*tasks=*/24)));
    });
    std::future<void> done = serve.get_future();
    std::thread serving(std::move(serve));
    if (done.wait_for(std::chrono::minutes(1)) ==
        std::future_status::timeout) {
      std::fprintf(stderr, "serve() hung: %zu workers\n", workers);
      std::_Exit(1);
    }
    serving.join();
    EXPECT_THROW(done.get(), std::out_of_range) << workers << " workers";

    // The fold journals a task's attempts right after its request record,
    // so an attempt without a request would be a task the fold never saw.
    std::vector<double> requested;
    std::vector<double> attempted;
    std::istringstream lines(journal.jsonl());
    for (std::string line; std::getline(lines, line);) {
      const test_support::JsonValue rec =
          test_support::JsonParser(line).parse();
      const std::string& event = rec.object().at("event").string();
      if (event == "request") {
        requested.push_back(rec.object().at("task").number());
      } else if (event == "attempt") {
        attempted.push_back(rec.object().at("task").number());
      }
    }
    for (std::size_t i = 0; i < requested.size(); ++i) {
      EXPECT_EQ(requested[i], static_cast<double>(i)) << workers << " workers";
    }
    for (const double task : attempted) {
      EXPECT_NE(std::find(requested.begin(), requested.end(), task),
                requested.end())
          << "attempt of unfolded task " << task << ", " << workers
          << " workers";
    }
  }
}

TEST_F(ServerTest, ReactivePlusAdmissionControlThrows) {
  ServerConfig cfg;
  cfg.policy = ServePolicy::kBiM;
  cfg.admission_capacity = 4;
  Server server(*platform_, *models_, cfg);
  EXPECT_THROW(
      server.serve(RequestStream(models_->size(), stream_config())),
      std::invalid_argument);
}

TEST_F(ServerTest, ValidatesTasksAndConstruction) {
  EXPECT_THROW(Server(*platform_, {}, {}), std::invalid_argument);

  ServerConfig cfg;
  cfg.policy = ServePolicy::kMaxn;
  Server server(*platform_, *models_, cfg);

  Task bad_model;
  bad_model.model_index = 99;
  bad_model.passes = 1;
  EXPECT_THROW(server.serve(std::vector<Task>{bad_model}),
               std::invalid_argument);

  Task bad_passes;
  bad_passes.passes = 0;
  EXPECT_THROW(server.serve(std::vector<Task>{bad_passes}),
               std::invalid_argument);

  Task late, early;
  late.passes = early.passes = 1;
  late.arrival_s = 2.0;
  early.arrival_s = 1.0;
  EXPECT_THROW(server.serve(std::vector<Task>{late, early}),
               std::invalid_argument);

  const ServeReport empty = server.serve(std::vector<Task>{});
  EXPECT_EQ(empty.total_tasks, 0u);
  EXPECT_EQ(empty.energy_j, 0.0);
  EXPECT_EQ(empty.makespan_s, 0.0);
}

TEST_F(ServerTest, StreamModelCountMustMatch) {
  ServerConfig cfg;
  cfg.policy = ServePolicy::kMaxn;
  Server server(*platform_, *models_, cfg);
  EXPECT_THROW(server.serve(RequestStream(7, stream_config())),
               std::invalid_argument);
}

// --- report export ---

TEST_F(ServerTest, ReportJsonIsParseableAndConsistent) {
  const ServeReport r = serve_with(ServePolicy::kPowerLens, 4);
  std::ostringstream os;
  r.write_json(os);
  const test_support::JsonValue root =
      test_support::JsonParser(os.str()).parse();
  ASSERT_TRUE(root.is_object());
  const test_support::JsonObject& o = root.object();
  EXPECT_EQ(o.at("policy").string(), "PowerLens");
  EXPECT_EQ(o.at("total_tasks").number(), 12.0);
  // The JSON number formatter trades trailing digits for compactness, so
  // compare at its precision rather than bitwise.
  EXPECT_NEAR(o.at("energy_j").number(), r.energy_j, 1e-9 * r.energy_j);
  EXPECT_NEAR(o.at("energy_efficiency_img_per_j").number(),
              r.energy_efficiency(), 1e-9 * r.energy_efficiency());
  EXPECT_TRUE(o.count("latency_p99_s"));
  EXPECT_TRUE(o.count("plan_cache_hits"));
}

}  // namespace
}  // namespace powerlens::serve
