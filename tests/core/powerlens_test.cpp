// End-to-end PowerLens framework tests: offline training, per-model
// optimization plans, and the headline claim — preset block-level DVFS beats
// the reactive baselines on energy efficiency.
#include "core/powerlens.hpp"

#include "baselines/fpg.hpp"
#include "baselines/ondemand.hpp"
#include "core/ablation.hpp"
#include "core/metrics.hpp"
#include "dnn/builder.hpp"
#include "dnn/models.hpp"
#include "hw/analytic.hpp"
#include "hw/sim_engine.hpp"

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

namespace powerlens::core {
namespace {

// PowerLens keeps a pointer to its Platform: a temporary must not bind.
static_assert(!std::is_constructible_v<PowerLens, hw::Platform&&>);
static_assert(!std::is_constructible_v<PowerLens, const hw::Platform&&>);
static_assert(std::is_constructible_v<PowerLens, const hw::Platform&>);
static_assert(std::is_constructible_v<PowerLens, hw::Platform&>);

PowerLensConfig test_config() {
  PowerLensConfig cfg;
  cfg.dataset.num_networks = 60;  // small but enough to learn the mapping
  cfg.dataset.seed = 5;
  cfg.train_hyper.epochs = 30;
  cfg.train_decision.epochs = 30;
  return cfg;
}

// Expensive shared fixture: one trained framework for the whole suite.
class PowerLensTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    platform_ = new hw::Platform(hw::make_tx2());
    framework_ = new PowerLens(*platform_, test_config());
    summary_ = new TrainingSummary(framework_->train());
  }
  static void TearDownTestSuite() {
    delete summary_;
    delete framework_;
    delete platform_;
  }

  static hw::Platform* platform_;
  static PowerLens* framework_;
  static TrainingSummary* summary_;
};

hw::Platform* PowerLensTest::platform_ = nullptr;
PowerLens* PowerLensTest::framework_ = nullptr;
TrainingSummary* PowerLensTest::summary_ = nullptr;

TEST_F(PowerLensTest, TrainingProducesBothModels) {
  EXPECT_TRUE(framework_->trained());
  EXPECT_EQ(summary_->networks, 60u);
  EXPECT_GT(summary_->blocks, 60u);
}

TEST_F(PowerLensTest, DecisionModelLearnsFrequencyMapping) {
  // The paper reports 94.2%; with a small training run we still expect the
  // mapping to be clearly learned.
  EXPECT_GT(summary_->decision_model.test_accuracy, 0.55);
  // "Even in cases of prediction deviation, the predicted target frequency
  // is only one or two levels away."
  EXPECT_LT(summary_->decision_model.test_mean_level_error, 2.0);
}

TEST_F(PowerLensTest, OptimizePlansCoverEveryZooModel) {
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    const dnn::Graph g = spec.build(8);
    const OptimizationPlan plan = framework_->optimize(g);
    EXPECT_EQ(plan.view.num_layers(), g.size()) << spec.name;
    EXPECT_EQ(plan.block_levels.size(), plan.view.block_count()) << spec.name;
    EXPECT_EQ(plan.schedule.points.size(), plan.view.block_count())
        << spec.name;
    for (std::size_t level : plan.block_levels) {
      EXPECT_LT(level, platform_->gpu_levels()) << spec.name;
    }
  }
}

TEST_F(PowerLensTest, ScheduleAlignsWithBlockBoundaries) {
  const dnn::Graph g = dnn::make_resnet152(8);
  const OptimizationPlan plan = framework_->optimize(g);
  for (std::size_t i = 0; i < plan.view.block_count(); ++i) {
    EXPECT_EQ(plan.schedule.points[i].layer_index,
              plan.view.blocks()[i].begin);
    EXPECT_EQ(plan.schedule.points[i].gpu_level, plan.block_levels[i]);
  }
}

TEST_F(PowerLensTest, PowerLensBeatsOndemandOnEnergyEfficiency) {
  hw::SimEngine engine(*platform_);
  const dnn::Graph g = dnn::make_resnet152(8);

  baselines::OndemandGovernor bim;
  hw::RunPolicy bim_policy = engine.default_policy();
  bim_policy.governor = &bim;
  const hw::ExecutionResult r_bim = engine.run(g, 10, bim_policy);

  const OptimizationPlan plan = framework_->optimize(g);
  baselines::OndemandGovernor cpu_governor;  // CPU stays ondemand
  hw::RunPolicy pl_policy = engine.default_policy();
  pl_policy.schedule = &plan.schedule;
  pl_policy.governor = &cpu_governor;
  const hw::ExecutionResult r_pl = engine.run(g, 10, pl_policy);

  EXPECT_GT(ee_gain(r_pl, r_bim), 0.15);
}

TEST_F(PowerLensTest, OracleAtLeastAsGoodAsModelDriven) {
  hw::SimEngine engine(*platform_);
  const dnn::Graph g = dnn::make_resnet34(8);

  const OptimizationPlan model_plan = framework_->optimize(g);
  const OptimizationPlan oracle_plan = framework_->optimize_oracle(g);

  hw::RunPolicy p1 = engine.default_policy();
  p1.schedule = &model_plan.schedule;
  hw::RunPolicy p2 = engine.default_policy();
  p2.schedule = &oracle_plan.schedule;
  const double ee_model = engine.run(g, 10, p1).energy_efficiency();
  const double ee_oracle = engine.run(g, 10, p2).energy_efficiency();
  // The oracle uses exhaustive sweeps; the model may tie but should not be
  // meaningfully better.
  EXPECT_GT(ee_model, ee_oracle * 0.85);
}

TEST_F(PowerLensTest, AblationsNeverBeatFullPipeline) {
  hw::SimEngine engine(*platform_);
  const dnn::Graph g = dnn::make_resnet152(8);

  const OptimizationPlan full = framework_->optimize(g);
  hw::RunPolicy p_full = engine.default_policy();
  p_full.schedule = &full.schedule;
  const double ee_full = engine.run(g, 10, p_full).energy_efficiency();

  // P-R: random partition at comparable granularity.
  const OptimizationPlan pr = framework_->plan_for_view(
      g, random_power_view(g.size(),
                           std::max<std::size_t>(full.view.block_count(), 4),
                           99));
  hw::RunPolicy p_pr = engine.default_policy();
  p_pr.schedule = &pr.schedule;
  const double ee_pr = engine.run(g, 10, p_pr).energy_efficiency();

  // P-N: one decision for the whole network.
  const OptimizationPlan pn =
      framework_->plan_for_view(g, single_block_view(g.size()));
  hw::RunPolicy p_pn = engine.default_policy();
  p_pn.schedule = &pn.schedule;
  const double ee_pn = engine.run(g, 10, p_pn).energy_efficiency();

  // On a homogeneous network the ablations may tie (same level everywhere),
  // and with this fixture's deliberately small training set the decision
  // model carries a level or so of noise — but the ablations must never win
  // decisively.
  EXPECT_GE(ee_full, ee_pn * 0.94);
  EXPECT_GE(ee_full, ee_pr * 0.94);
}

TEST_F(PowerLensTest, RandomPartitionLosesOnHeterogeneousNetwork) {
  // A network with a sharp compute/memory split: a conv body followed by a
  // long elementwise (memory-bound) tail. Correct clustering separates the
  // two regimes; a misaligned partition mixes them and pays in both energy
  // (wrong frequency for part of each block) and switch stalls.
  dnn::GraphBuilder b("hetero", {8, 64, 112, 112});
  dnn::NodeId x = b.input();
  for (int i = 0; i < 12; ++i) {
    x = b.conv2d(x, 64, 3, 1, 1);
    x = b.batch_norm(x);
    x = b.relu(x);
  }
  for (int i = 0; i < 36; ++i) x = b.gelu(x);
  const dnn::Graph g = b.build();

  hw::SimEngine engine(*platform_);
  // Oracle decisions isolate the partitioning question from model error.
  const OptimizationPlan good = framework_->plan_for_view(
      g, clustering::PowerView({{0, 37}, {37, g.size()}}, g.size()),
      /*use_oracle=*/true);
  ASSERT_NE(good.block_levels[0], good.block_levels[1])
      << "test premise: the two regimes want different frequencies";

  double worst_random = 1e300;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const OptimizationPlan pr = framework_->plan_for_view(
        g, random_power_view(g.size(), 6, seed), /*use_oracle=*/true);
    hw::RunPolicy p = engine.default_policy();
    p.schedule = &pr.schedule;
    worst_random = std::min(worst_random,
                            engine.run(g, 20, p).energy_efficiency());
  }

  hw::RunPolicy p_good = engine.default_policy();
  p_good.schedule = &good.schedule;
  const double ee_good = engine.run(g, 20, p_good).energy_efficiency();
  EXPECT_GT(ee_good, worst_random);
}

TEST_F(PowerLensTest, PlanForViewRejectsMismatchedView) {
  const dnn::Graph g = dnn::make_alexnet(8);
  EXPECT_THROW(
      framework_->plan_for_view(g, clustering::PowerView({{0, 3}}, 3)),
      std::invalid_argument);
}

// optimize_batch is a loop over optimize(): each plan equals the solo
// optimize() plan field-exactly, with or without a workspace.
TEST_F(PowerLensTest, OptimizeBatchMatchesSoloOptimizeFieldExactly) {
  std::vector<dnn::Graph> graphs;
  graphs.push_back(dnn::make_alexnet(4));
  graphs.push_back(dnn::make_model("resnet34", 4));
  graphs.push_back(dnn::make_model("mobilenet_v3", 2));
  graphs.push_back(dnn::make_alexnet(4));  // duplicate graph in one batch
  std::vector<const dnn::Graph*> ptrs;
  for (const dnn::Graph& g : graphs) ptrs.push_back(&g);

  const std::vector<OptimizationPlan> batch = framework_->optimize_batch(ptrs);
  ASSERT_EQ(batch.size(), graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const OptimizationPlan solo = framework_->optimize(graphs[i]);
    EXPECT_TRUE(batch[i] == solo) << "graph " << i;
  }

  // Workspace-threaded variant is just as exact, and a one-element batch
  // degenerates to the solo path.
  linalg::Workspace ws;
  const std::vector<OptimizationPlan> pooled =
      framework_->optimize_batch(ptrs, &ws);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_TRUE(pooled[i] == batch[i]) << "graph " << i;
  }
  const dnn::Graph* const one[] = {&graphs[1]};
  const std::vector<OptimizationPlan> single =
      framework_->optimize_batch(one, &ws);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_TRUE(single[0] == batch[1]);
}

TEST_F(PowerLensTest, OptimizeBatchEmptyIsEmpty) {
  EXPECT_TRUE(framework_->optimize_batch({}).empty());
}

// The plan's static cost prediction is what the serving layer scores
// simulated actuals against (obs::Residuals) — it must be populated,
// consistent with the analytic schedule cost, and part of plan equality.
TEST_F(PowerLensTest, PlansCarryPredictedPassCost) {
  const dnn::Graph g = dnn::make_alexnet(8);
  for (const bool oracle : {false, true}) {
    const OptimizationPlan plan =
        oracle ? framework_->optimize_oracle(g) : framework_->optimize(g);
    EXPECT_GT(plan.predicted_pass_time_s, 0.0) << "oracle=" << oracle;
    EXPECT_GT(plan.predicted_pass_energy_j, 0.0) << "oracle=" << oracle;
    // The prediction is exactly hw::schedule_cost from the MAXN boot state.
    const hw::BlockCost expected = hw::schedule_cost(
        *platform_, g.layers(), plan.schedule, platform_->max_gpu_level(),
        platform_->max_cpu_level());
    EXPECT_DOUBLE_EQ(plan.predicted_pass_time_s, expected.time_s)
        << "oracle=" << oracle;
    EXPECT_DOUBLE_EQ(plan.predicted_pass_energy_j, expected.energy_j)
        << "oracle=" << oracle;
  }
}

TEST_F(PowerLensTest, PlanEqualityIncludesPredictedCost) {
  const dnn::Graph g = dnn::make_alexnet(8);
  const OptimizationPlan a = framework_->optimize(g);
  OptimizationPlan b = framework_->optimize(g);
  EXPECT_TRUE(a == b);
  b.predicted_pass_time_s += 1e-9;
  EXPECT_FALSE(a == b);  // the cache's hit-equals-fresh-plan invariant
}

TEST(PowerLensUntrained, OptimizeBatchBeforeTrainThrows) {
  const hw::Platform platform = hw::make_tx2();
  const PowerLens framework(platform, test_config());
  const dnn::Graph g = dnn::make_alexnet(1);
  const dnn::Graph* const ptrs[] = {&g};
  EXPECT_THROW(framework.optimize_batch(ptrs), std::logic_error);
}

TEST(PowerLensUntrained, OptimizeBeforeTrainThrows) {
  const hw::Platform platform = hw::make_tx2();
  const PowerLens framework(platform, test_config());
  EXPECT_FALSE(framework.trained());
  EXPECT_THROW(framework.optimize(dnn::make_alexnet(1)), std::logic_error);
}

TEST(PowerLensUntrained, OracleWorksWithoutTraining) {
  const hw::Platform platform = hw::make_tx2();
  const PowerLens framework(platform, test_config());
  const OptimizationPlan plan =
      framework.optimize_oracle(dnn::make_googlenet(8));
  EXPECT_GE(plan.view.block_count(), 1u);
}

}  // namespace
}  // namespace powerlens::core
