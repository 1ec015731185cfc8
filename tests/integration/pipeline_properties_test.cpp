// Cross-module property suites: invariants that must hold for every zoo
// model, every platform, and every clustering-hyperparameter grid point.
#include "clustering/cluster.hpp"
#include "core/dataset_gen.hpp"
#include "dnn/models.hpp"
#include "features/depthwise.hpp"
#include "features/global.hpp"
#include "hw/analytic.hpp"
#include "hw/cost_table.hpp"
#include "hw/sim_engine.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

namespace powerlens {
namespace {

// ---------------------------------------------------------------------------
// Clustering invariants across the (model x hyperparameter) product space.
// ---------------------------------------------------------------------------

struct ClusterCase {
  const char* model;
  double eps;
  std::size_t min_pts;
};

// gtest appends the printed parameter to every ctest name; print the stable
// fields, not the default raw bytes (which include the `model` pointer).
void PrintTo(const ClusterCase& c, std::ostream* os) {
  *os << c.model << " eps=" << c.eps << " minPts=" << c.min_pts;
}

class ClusteringPropertyTest : public ::testing::TestWithParam<ClusterCase> {};

TEST_P(ClusteringPropertyTest, ViewIsAlwaysAValidPartition) {
  const ClusterCase& c = GetParam();
  const dnn::Graph g = dnn::make_model(c.model, 1);
  clustering::ClusteringConfig cfg;
  cfg.hyper = {c.eps, c.min_pts};
  const clustering::PowerView v = clustering::build_power_view(g, cfg);

  EXPECT_EQ(v.num_layers(), g.size());
  std::size_t covered = 0;
  std::size_t expected_begin = 0;
  for (const clustering::PowerBlock& b : v.blocks()) {
    EXPECT_EQ(b.begin, expected_begin);
    EXPECT_GT(b.end, b.begin);
    covered += b.size();
    expected_begin = b.end;
  }
  EXPECT_EQ(covered, g.size());
}

INSTANTIATE_TEST_SUITE_P(
    GridSweep, ClusteringPropertyTest,
    ::testing::Values(
        ClusterCase{"alexnet", 0.04, 2}, ClusterCase{"alexnet", 0.32, 8},
        ClusterCase{"googlenet", 0.07, 3}, ClusterCase{"googlenet", 0.22, 5},
        ClusterCase{"resnet152", 0.04, 2}, ClusterCase{"resnet152", 0.15, 5},
        ClusterCase{"resnet152", 0.32, 8}, ClusterCase{"densenet201", 0.10, 3},
        ClusterCase{"vit_base_16", 0.07, 2},
        ClusterCase{"vit_base_16", 0.22, 8},
        ClusterCase{"mobilenet_v3", 0.10, 5},
        ClusterCase{"regnet_y_128gf", 0.15, 3}),
    [](const ::testing::TestParamInfo<ClusterCase>& info) {
      return std::string(info.param.model) + "_" +
             std::to_string(info.index);
    });

// ---------------------------------------------------------------------------
// Analytic model invariants for every zoo model on both platforms.
// ---------------------------------------------------------------------------

struct ModelPlatformCase {
  const char* model;
  const char* platform;
};

void PrintTo(const ModelPlatformCase& c, std::ostream* os) {
  *os << c.model << " " << c.platform;
}

class AnalyticPropertyTest
    : public ::testing::TestWithParam<ModelPlatformCase> {
 protected:
  hw::Platform platform() const {
    return std::string(GetParam().platform) == "tx2" ? hw::make_tx2()
                                                     : hw::make_agx();
  }
};

TEST_P(AnalyticPropertyTest, TimeMonotoneAndEnergyConvex) {
  const hw::Platform p = platform();
  const dnn::Graph g = dnn::make_model(GetParam().model, 8);
  const std::size_t cpu = p.max_cpu_level();

  double prev_time = 1e300;
  std::vector<double> energy;
  for (std::size_t level = 0; level < p.gpu_levels(); ++level) {
    const hw::BlockCost c = hw::analytic_block_cost(p, g.layers(), level, cpu);
    EXPECT_LT(c.time_s, prev_time) << "time must fall with frequency";
    prev_time = c.time_s;
    energy.push_back(c.energy_j);
  }
  // Energy falls from level 0 to the optimum, rises after — at most one sign
  // change in the discrete derivative.
  int sign_changes = 0;
  for (std::size_t i = 2; i < energy.size(); ++i) {
    const bool was_falling = energy[i - 1] < energy[i - 2];
    const bool is_falling = energy[i] < energy[i - 1];
    if (was_falling != is_falling) ++sign_changes;
  }
  EXPECT_LE(sign_changes, 1) << "energy curve must be unimodal";
}

TEST_P(AnalyticPropertyTest, OptimalLevelBeatsEndpoints) {
  const hw::Platform p = platform();
  const dnn::Graph g = dnn::make_model(GetParam().model, 8);
  const std::size_t cpu = p.max_cpu_level();
  const std::size_t best = hw::optimal_gpu_level(p, g.layers(), cpu);
  const double e_best =
      hw::analytic_block_cost(p, g.layers(), best, cpu).energy_j;
  EXPECT_LE(e_best,
            hw::analytic_block_cost(p, g.layers(), 0, cpu).energy_j);
  EXPECT_LE(e_best, hw::analytic_block_cost(p, g.layers(),
                                            p.max_gpu_level(), cpu)
                        .energy_j);
}

TEST_P(AnalyticPropertyTest, SimMatchesAnalyticAtFixedLevel) {
  const hw::Platform p = platform();
  const dnn::Graph g = dnn::make_model(GetParam().model, 8);
  hw::SimEngine engine(p);
  hw::RunPolicy policy = engine.default_policy();
  policy.inter_pass_gap_s = 0.0;
  policy.initial_gpu_level = p.gpu_levels() / 2;
  const hw::ExecutionResult r = engine.run(g, 2, policy);
  const hw::BlockCost expected = hw::analytic_block_cost(
      p, g.layers(), policy.initial_gpu_level, p.max_cpu_level(),
      policy.cpu_load);
  EXPECT_NEAR(r.time_s, 2.0 * expected.time_s, 1e-6 * expected.time_s);
  // The engine additionally models launcher-thread CPU power, which the
  // closed-form block cost folds into a flat cpu_load; allow 10%.
  EXPECT_NEAR(r.energy_j, 2.0 * expected.energy_j,
              0.10 * 2.0 * expected.energy_j);
}

INSTANTIATE_TEST_SUITE_P(
    ZooByPlatform, AnalyticPropertyTest,
    ::testing::Values(ModelPlatformCase{"alexnet", "tx2"},
                      ModelPlatformCase{"alexnet", "agx"},
                      ModelPlatformCase{"googlenet", "tx2"},
                      ModelPlatformCase{"vgg19", "agx"},
                      ModelPlatformCase{"mobilenet_v3", "tx2"},
                      ModelPlatformCase{"densenet201", "agx"},
                      ModelPlatformCase{"resnext101", "tx2"},
                      ModelPlatformCase{"resnet34", "agx"},
                      ModelPlatformCase{"resnet152", "tx2"},
                      ModelPlatformCase{"regnet_x_32gf", "agx"},
                      ModelPlatformCase{"regnet_y_128gf", "tx2"},
                      ModelPlatformCase{"vit_base_16", "agx"},
                      ModelPlatformCase{"vit_base_32", "tx2"}),
    [](const ::testing::TestParamInfo<ModelPlatformCase>& info) {
      return std::string(info.param.model) + "_" + info.param.platform;
    });

// ---------------------------------------------------------------------------
// Feasibility post-processing properties.
// ---------------------------------------------------------------------------

TEST(FeasibilityGuard, NeverProducesUndersizedBlocks) {
  const hw::Platform p = hw::make_agx();
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    const dnn::Graph g = spec.build(8);
    clustering::ClusteringConfig cfg;
    cfg.hyper = {0.07, 2};  // deliberately fine
    const clustering::PowerView raw = clustering::build_power_view(g, cfg);
    const std::size_t cpu_levels[] = {p.max_cpu_level()};
    const hw::CostTable costs(p, g.layers(), cpu_levels);
    const double min_s = core::feasible_block_duration(costs, p);
    const clustering::PowerView fixed =
        core::enforce_min_block_duration(costs, raw, p, min_s);

    EXPECT_LE(fixed.block_count(), raw.block_count()) << spec.name;
    if (fixed.block_count() > 1) {
      for (const clustering::PowerBlock& b : fixed.blocks()) {
        const double t =
            hw::analytic_block_cost(p, g.layers().subspan(b.begin, b.size()),
                                    p.gpu_levels() / 2, p.max_cpu_level())
                .time_s;
        EXPECT_GE(t, min_s) << spec.name;
      }
    }
  }
}

TEST(FeasibilityGuard, SingleBlockAlwaysFeasible) {
  const hw::Platform p = hw::make_tx2();
  const dnn::Graph g = dnn::make_alexnet(1);  // tiny, fast pass
  const std::size_t cpu_levels[] = {p.max_cpu_level()};
  const clustering::PowerView one = core::enforce_min_block_duration(
      hw::CostTable(p, g.layers(), cpu_levels),
      clustering::PowerView({{0, g.size()}}, g.size()), p,
      10.0 /* absurd floor */);
  EXPECT_EQ(one.block_count(), 1u);
}

// ---------------------------------------------------------------------------
// Feature-extractor consistency between block union and whole network.
// ---------------------------------------------------------------------------

TEST(FeatureConsistency, BlockTotalsSumToNetworkTotals) {
  const dnn::Graph g = dnn::make_googlenet(4);
  const clustering::PowerView v({{0, g.size() / 3},
                                 {g.size() / 3, 2 * g.size() / 3},
                                 {2 * g.size() / 3, g.size()}},
                                g.size());
  double flops_sum = 0.0;
  for (const clustering::PowerBlock& b : v.blocks()) {
    double block_flops = 0.0;
    for (std::size_t i = b.begin; i < b.end; ++i) {
      block_flops += static_cast<double>(g.layer(i).flops);
    }
    flops_sum += block_flops;
  }
  EXPECT_DOUBLE_EQ(flops_sum, static_cast<double>(g.total_flops()));
}

}  // namespace
}  // namespace powerlens
