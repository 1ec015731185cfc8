// Closed-loop plan adaptation (serve/adapt): drift-triggered online
// re-planning with background model retraining.
//
//  - Drift-then-recover: under persistent latency inflation the static
//    plans' residual EWMA crosses the drift threshold; the epoch-boundary
//    re-plan rescales the cost table, installs corrected plans, and the
//    EWMA collapses back below threshold — while a no-adaptation control
//    run stays drifting.
//  - The serving determinism contract survives the closed loop: reports,
//    journal JSONL, and residual snapshots are byte-identical at 1 vs 8
//    workers and across kernel dispatch paths, with retraining enabled,
//    and at 1, 2, 4 and 8 workers with the fold running beside them.
//  - Cold models (never served, never drifting) keep their plans untouched;
//    thermal pressure caps re-planned levels below the ladder top.
//  - Config surface: adaptation refuses non-PowerLens policies, disabled
//    residuals, a disabled plan cache, and a zero epoch.
//  - core::PowerLens::replan_batch unit behavior: base view preserved,
//    level caps honored, corrected predictions scale with the signals.
#include "serve/adapt.hpp"

#include "core/powerlens.hpp"
#include "dnn/models.hpp"
#include "fault/fault_spec.hpp"
#include "linalg/kernels.hpp"
#include "obs/journal.hpp"
#include "obs/residuals.hpp"
#include "serve/server.hpp"
#include "serve/signature.hpp"
#include "support/json_parser.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace powerlens::serve {
namespace {

using test_support::JsonParser;
using test_support::JsonValue;

constexpr std::int64_t kBatch = 10;
constexpr std::size_t kTasks = 100;
constexpr std::size_t kEpoch = 10;

class PathGuard {
 public:
  explicit PathGuard(linalg::kernels::DispatchPath path) {
    linalg::kernels::set_path_override(path);
  }
  ~PathGuard() { linalg::kernels::set_path_override(std::nullopt); }
};

class AdaptServeTest : public ::testing::Test {
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

    // vgg19 matters: it clusters into several power blocks, so drift
    // re-plans harvest enough decision-model rows to cross the retrain
    // floor (the single-block models alone never would).
    models_ = new std::vector<DeployedModel>;
    for (const char* name : {"alexnet", "resnet34", "googlenet", "vgg19"}) {
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

  static RequestStreamConfig stream_config() {
    RequestStreamConfig cfg;
    cfg.seed = 7;
    cfg.num_tasks = kTasks;
    cfg.images_per_task = 20;  // 2 passes per task
    cfg.batch = kBatch;
    return cfg;
  }

  // Persistent latency inflation: nearly every layer runs 2x slower than
  // the analytic model predicts, so every plan's residual EWMA is pushed
  // far past the drift threshold — the clean drift driver (no DVFS faults,
  // so nothing retries or falls back and the signal is pure model error).
  static fault::FaultSpec drift_spec() {
    return fault::FaultSpec::parse("latency=0.9,latency_x=2.0,seed=42");
  }

  // The same inflation plus thermal throttling for the level-cap path.
  static fault::FaultSpec thermal_drift_spec() {
    return fault::FaultSpec::parse(
        "latency=0.9,latency_x=2.0,thermal=2.0,thermal_s=0.3,thermal_cap=3,"
        "seed=42");
  }

  static ServerConfig adapt_config(std::size_t workers,
                                   const fault::FaultSpec& faults,
                                   obs::Journal* journal,
                                   obs::Residuals* residuals,
                                   bool adapt = true) {
    ServerConfig cfg;
    cfg.policy = ServePolicy::kPowerLens;
    cfg.num_workers = workers;
    cfg.faults = faults;
    // Degradation recovery off: a fallen-back request would hide the drift
    // this suite injects on purpose.
    cfg.degrade.fallback_enabled = false;
    cfg.journal = journal;
    cfg.residuals = residuals;
    cfg.adapt_enabled = adapt;
    cfg.adapt_epoch_tasks = kEpoch;
    return cfg;
  }

  static hw::Platform* platform_;
  static core::PowerLens* framework_;
  static std::vector<DeployedModel>* models_;
};

hw::Platform* AdaptServeTest::platform_ = nullptr;
core::PowerLens* AdaptServeTest::framework_ = nullptr;
std::vector<DeployedModel>* AdaptServeTest::models_ = nullptr;

double max_abs_signature_ewma(const obs::Residuals& sink) {
  double worst = 0.0;
  for (const obs::Residuals::KeySnapshot& k : sink.snapshot()) {
    if (k.signature == 0) continue;
    worst = std::max(worst, std::abs(k.stats.latency.ewma));
    worst = std::max(worst, std::abs(k.stats.energy.ewma));
  }
  return worst;
}

// --- the acceptance criterion: drift-then-recover ---

TEST_F(AdaptServeTest, ReplanningCollapsesResidualEwmaBelowThreshold) {
  obs::Residuals adapted, control;
  obs::Journal journal;

  Server server(*platform_, *models_,
                adapt_config(4, drift_spec(), &journal, &adapted),
                framework_);
  const ServeReport report =
      server.serve(RequestStream(models_->size(), stream_config()));
  ASSERT_EQ(report.admitted, kTasks);

  const AdaptController* adapt = server.adapt_controller();
  ASSERT_NE(adapt, nullptr);
  EXPECT_EQ(adapt->epochs(), kTasks / kEpoch);
  ASSERT_GT(adapt->replans(), 0u);

  // Control: the same stream and faults with no adaptation stays drifting.
  Server control_server(
      *platform_, *models_,
      adapt_config(4, drift_spec(), nullptr, &control, /*adapt=*/false),
      framework_);
  control_server.serve(RequestStream(models_->size(), stream_config()));

  const double threshold = adapted.config().drift_threshold;
  EXPECT_GT(max_abs_signature_ewma(control), threshold)
      << "control run must actually drift for this test to mean anything";
  EXPECT_LT(max_abs_signature_ewma(adapted), threshold)
      << "re-planning should have collapsed every signature-level EWMA";

  // The journal tells the story: epoch summaries at every boundary and one
  // re-plan record per corrected plan, all strict JSON.
  std::size_t epoch_records = 0;
  std::size_t replan_records = 0;
  std::istringstream is(journal.jsonl());
  std::string line;
  while (std::getline(is, line)) {
    const JsonValue v = JsonParser(line).parse();
    const auto& o = v.object();
    const std::string& event = o.at("event").string();
    if (event == "adapt_epoch") {
      ++epoch_records;
      EXPECT_TRUE(o.count("drifting_models"));
      EXPECT_TRUE(o.count("replans"));
    } else if (event == "adapt_replan") {
      ++replan_records;
      EXPECT_FALSE(o.at("model").string().empty());
      EXPECT_TRUE(o.count("plan_signature"));
      EXPECT_GT(o.at("time_scale").number(), 1.0);  // inflation -> slower
      EXPECT_TRUE(o.count("latency_ewma"));
    }
  }
  EXPECT_EQ(epoch_records, adapt->epochs());
  EXPECT_EQ(replan_records, adapt->replans());
}

TEST_F(AdaptServeTest, ReplansImproveLatePredictionsOverEarlyOnes) {
  obs::Residuals sink;
  Server server(*platform_, *models_,
                adapt_config(4, drift_spec(), nullptr, &sink), framework_);
  const ServeReport report =
      server.serve(RequestStream(models_->size(), stream_config()));

  // Requests in the first epoch ran on static plans under 2x inflation;
  // after the first boundary the corrected plans serve. Mean |residual| of
  // the post-adaptation tail must beat the pre-adaptation head.
  double head = 0.0, tail = 0.0;
  std::size_t head_n = 0, tail_n = 0;
  for (const RequestOutcome& o : report.outcomes) {
    if (!std::isfinite(o.latency_residual)) continue;
    if (o.task_id < kEpoch) {
      head += std::abs(o.latency_residual);
      ++head_n;
    } else if (o.task_id >= kTasks - 2 * kEpoch) {
      tail += std::abs(o.latency_residual);
      ++tail_n;
    }
  }
  ASSERT_GT(head_n, 0u);
  ASSERT_GT(tail_n, 0u);
  EXPECT_LT(tail / static_cast<double>(tail_n),
            0.5 * head / static_cast<double>(head_n));
}

// --- determinism: the closed loop inherits the serving contract ---

TEST_F(AdaptServeTest, ExportsByteIdenticalAcrossWorkerCounts) {
  obs::Journal j1, j8;
  obs::Residuals r1, r8;
  ServerConfig c1 = adapt_config(1, drift_spec(), &j1, &r1);
  ServerConfig c8 = adapt_config(8, drift_spec(), &j8, &r8);
  // Retraining on, with a low row bar, so the swap protocol is inside the
  // determinism check too.
  c1.adapt_retrain = c8.adapt_retrain = true;
  c1.adapt_retrain_min_rows = c8.adapt_retrain_min_rows = 10;

  std::ostringstream rep1, rep8;
  std::uint64_t retrains1 = 0, retrains8 = 0, swaps1 = 0, swaps8 = 0;
  {
    Server server(*platform_, *models_, c1, framework_);
    server.serve(RequestStream(models_->size(), stream_config()))
        .write_json(rep1);
    retrains1 = server.adapt_controller()->retrain_rounds();
    swaps1 = server.adapt_controller()->model_swaps();
  }
  {
    Server server(*platform_, *models_, c8, framework_);
    server.serve(RequestStream(models_->size(), stream_config()))
        .write_json(rep8);
    retrains8 = server.adapt_controller()->retrain_rounds();
    swaps8 = server.adapt_controller()->model_swaps();
  }
  // The retrain protocol actually exercised, identically on both sides:
  // rounds launched from harvested rows and refitted bundles swapped in.
  EXPECT_GE(retrains1, 1u);
  EXPECT_GE(swaps1, 1u);
  EXPECT_EQ(retrains1, retrains8);
  EXPECT_EQ(swaps1, swaps8);
  ASSERT_GT(j1.appended(), kTasks);
  EXPECT_EQ(rep1.str(), rep8.str());
  EXPECT_EQ(j1.jsonl(), j8.jsonl());
  EXPECT_EQ(r1.json(), r8.json());
}

TEST_F(AdaptServeTest, FoldedWhileSimulatingExportsMatchAtEveryWorkerCount) {
  // The dispatching thread folds each finished prefix of an epoch while
  // the workers simulate the rest, so how far the fold has got when a
  // result lands depends on the worker count; the bytes must not.
  std::string reference;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    obs::Journal journal;
    obs::Residuals residuals;
    Server server(*platform_, *models_,
                  adapt_config(workers, drift_spec(), &journal, &residuals),
                  framework_);
    std::ostringstream report;
    server.serve(RequestStream(models_->size(), stream_config()))
        .write_json(report);
    ASSERT_GT(server.adapt_controller()->replans(), 0u);
    const std::string bytes =
        report.str() + journal.jsonl() + residuals.json();
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << workers << " workers";
    }
  }
}

TEST_F(AdaptServeTest, ExportsByteIdenticalAcrossDispatchPaths) {
  obs::Journal native, scalar;
  obs::Residuals rn, rs;
  {
    Server server(*platform_, *models_,
                  adapt_config(4, drift_spec(), &native, &rn), framework_);
    server.serve(RequestStream(models_->size(), stream_config()));
  }
  {
    PathGuard guard(linalg::kernels::DispatchPath::kScalar);
    Server server(*platform_, *models_,
                  adapt_config(4, drift_spec(), &scalar, &rs), framework_);
    server.serve(RequestStream(models_->size(), stream_config()));
  }
  ASSERT_GT(native.appended(), 0u);
  EXPECT_EQ(native.jsonl(), scalar.jsonl());
  EXPECT_EQ(rn.json(), rs.json());
}

// --- scope: only drifting models are touched ---

TEST_F(AdaptServeTest, ColdModelsKeepTheirPlansUntouched) {
  // A hand-built stream that never requests model 2: its plan is never
  // computed, never drifts, and must never be re-planned.
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < kTasks; ++i) {
    tasks.push_back({i, i % 2, /*passes=*/2,
                     /*arrival_s=*/static_cast<double>(i) * 0.01,
                     /*deadline_s=*/0.0});
  }
  obs::Residuals sink;
  obs::Journal journal;
  Server server(*platform_, *models_,
                adapt_config(4, drift_spec(), &journal, &sink), framework_);
  server.serve(tasks);

  const AdaptController* adapt = server.adapt_controller();
  ASSERT_GT(adapt->replans(), 0u);
  EXPECT_EQ(
      server.plan_cache().lookup(graph_signature((*models_)[2].graph)),
      nullptr);

  std::istringstream is(journal.jsonl());
  std::string line;
  while (std::getline(is, line)) {
    const JsonValue v = JsonParser(line).parse();
    const auto& o = v.object();
    if (o.at("event").string() == "adapt_replan") {
      EXPECT_NE(o.at("model").string(), (*models_)[2].name);
    }
  }
}

TEST_F(AdaptServeTest, ThermalPressureCapsReplannedLevels) {
  obs::Residuals sink;
  Server server(*platform_, *models_,
                adapt_config(4, thermal_drift_spec(), nullptr, &sink),
                framework_);
  server.serve(RequestStream(models_->size(), stream_config()));
  ASSERT_GT(server.adapt_controller()->replans(), 0u);

  // thermal_cap=3 levels off the top: every re-planned (installed) plan
  // schedules at or below the throttled ceiling.
  const std::size_t cap = platform_->max_gpu_level() - 3;
  std::size_t checked = 0;
  for (const DeployedModel& m : *models_) {
    const PlanCache::PlanPtr plan =
        server.plan_cache().lookup(graph_signature(m.graph));
    if (plan == nullptr) continue;
    const core::OptimizationPlan fresh = framework_->optimize(m.graph);
    if (*plan == fresh) continue;  // never re-planned
    ++checked;
    for (const std::size_t level : plan->block_levels) {
      EXPECT_LE(level, cap);
    }
  }
  EXPECT_GT(checked, 0u);
}

// --- config surface ---

TEST_F(AdaptServeTest, AdaptationRejectsUnsupportedConfigurations) {
  const auto make = [&](ServerConfig cfg) {
    Server server(*platform_, *models_, cfg, framework_);
  };
  ServerConfig base;
  base.policy = ServePolicy::kPowerLens;
  base.adapt_enabled = true;

  ServerConfig wrong_policy = base;
  wrong_policy.policy = ServePolicy::kMaxn;
  EXPECT_THROW(make(wrong_policy), std::invalid_argument);

  ServerConfig no_residuals = base;
  no_residuals.residuals_enabled = false;
  EXPECT_THROW(make(no_residuals), std::invalid_argument);

  ServerConfig no_cache = base;
  no_cache.use_plan_cache = false;
  EXPECT_THROW(make(no_cache), std::invalid_argument);

  ServerConfig zero_epoch = base;
  zero_epoch.adapt_epoch_tasks = 0;
  EXPECT_THROW(make(zero_epoch), std::invalid_argument);

  EXPECT_THROW(
      Server(*platform_, *models_, base, /*framework=*/nullptr),
      std::invalid_argument);

  EXPECT_NO_THROW(make(base));
}

// --- replan_batch unit behavior ---

TEST_F(AdaptServeTest, ReplanBatchKeepsViewHonorsCapAndScalesPrediction) {
  const dnn::Graph& graph = (*models_)[0].graph;
  const core::OptimizationPlan base = framework_->optimize(graph);

  core::ReplanRequest req;
  req.graph = &graph;
  req.base = &base;
  req.signals.time_scale = 2.0;
  req.signals.energy_scale = 1.5;
  req.signals.gpu_level_cap = platform_->max_gpu_level() - 2;
  const std::vector<core::OptimizationPlan> plans =
      framework_->replan_batch({{req}});
  ASSERT_EQ(plans.size(), 1u);
  const core::OptimizationPlan& plan = plans.front();

  // The partition survives; only levels and predictions change.
  EXPECT_EQ(plan.view, base.view);
  ASSERT_EQ(plan.block_levels.size(), base.block_levels.size());
  for (const std::size_t level : plan.block_levels) {
    EXPECT_LE(level, req.signals.gpu_level_cap);
  }
  // A uniform 2x time correction makes the corrected per-pass prediction
  // strictly larger than the analytic cost of the same schedule unscaled.
  EXPECT_GT(plan.predicted_pass_time_s, 0.0);
  EXPECT_GT(plan.predicted_pass_energy_j, 0.0);

  // Identity signals + unconstrained cap = the analytic argmin re-pick with
  // no correction; replaying it must be deterministic.
  core::ReplanRequest identity = req;
  identity.signals = {};
  const core::OptimizationPlan a =
      framework_->replan_batch({{identity}}).front();
  const core::OptimizationPlan b =
      framework_->replan_batch({{identity}}).front();
  EXPECT_EQ(a, b);

  // Bad inputs refuse loudly.
  core::ReplanRequest null_graph = req;
  null_graph.graph = nullptr;
  EXPECT_THROW(framework_->replan_batch({{null_graph}}),
               std::invalid_argument);
  core::ReplanRequest bad_scale = req;
  bad_scale.signals.time_scale = 0.0;
  EXPECT_THROW(framework_->replan_batch({{bad_scale}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace powerlens::serve
