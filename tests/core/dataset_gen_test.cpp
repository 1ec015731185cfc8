#include "core/dataset_gen.hpp"

#include "dnn/models.hpp"
#include "features/global.hpp"
#include "hw/analytic.hpp"
#include "hw/cost_table.hpp"

#include <gtest/gtest.h>

#include <set>

namespace powerlens::core {
namespace {

// A one-plane table at `cpu_level` — all an oracle evaluation reads.
hw::CostTable cost_plane(const hw::Platform& platform, const dnn::Graph& g,
                         std::size_t cpu_level) {
  const std::size_t cpu_levels[] = {cpu_level};
  return hw::CostTable(platform, g.layers(), cpu_levels);
}

TEST(HyperparamGrid, IndexRoundTrip) {
  const HyperparamGrid grid;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid.index_of(grid.at(i)), i);
  }
  EXPECT_THROW(grid.at(grid.size()), std::out_of_range);
  EXPECT_THROW(grid.index_of({123.0, 1}), std::invalid_argument);
}

TEST(HyperparamGrid, SizeIsProductOfAxes) {
  const HyperparamGrid grid;
  EXPECT_EQ(grid.size(),
            grid.eps_values.size() * grid.min_pts_values.size());
}

TEST(EvaluateViewOracle, SingleBlockMatchesOptimalLevel) {
  const hw::Platform platform = hw::make_tx2();
  const dnn::Graph g = dnn::make_resnet34(8);
  const clustering::PowerView view({{0, g.size()}}, g.size());
  const std::size_t cpu = platform.max_cpu_level();
  const ViewEvaluation ev =
      evaluate_view_oracle(cost_plane(platform, g, cpu), view, platform, cpu);
  ASSERT_EQ(ev.block_levels.size(), 1u);
  EXPECT_EQ(ev.block_levels[0],
            hw::optimal_gpu_level(platform, g.layers(),
                                  platform.max_cpu_level()));
  EXPECT_GT(ev.time_s, 0.0);
  EXPECT_GT(ev.energy_j, 0.0);
}

TEST(EvaluateViewOracle, MoreBlocksNeverWorseBeforeSwitchCost) {
  // With zero switch cost, finer partitions can only reduce energy (each
  // block gets its own optimum).
  hw::Platform platform = hw::make_tx2();
  platform.dvfs = {0.0, 0.0};
  const dnn::Graph g = dnn::make_resnet152(8);

  const clustering::PowerView one({{0, g.size()}}, g.size());
  const std::size_t half = g.size() / 2;
  const clustering::PowerView two({{0, half}, {half, g.size()}}, g.size());

  const std::size_t cpu = platform.max_cpu_level();
  const hw::CostTable costs = cost_plane(platform, g, cpu);
  const ViewEvaluation e1 = evaluate_view_oracle(costs, one, platform, cpu);
  const ViewEvaluation e2 = evaluate_view_oracle(costs, two, platform, cpu);
  EXPECT_LE(e2.energy_j, e1.energy_j + 1e-9);
}

TEST(EvaluateViewOracle, SwitchCostChargedPerLevelChange) {
  hw::Platform platform = hw::make_tx2();
  const dnn::Graph g = dnn::make_resnet152(8);
  const std::size_t half = g.size() / 2;
  const clustering::PowerView two({{0, half}, {half, g.size()}}, g.size());
  const std::size_t cpu = platform.max_cpu_level();

  const hw::CostTable costs = cost_plane(platform, g, cpu);
  const ViewEvaluation with_cost =
      evaluate_view_oracle(costs, two, platform, cpu);
  hw::Platform free = platform;
  free.dvfs = {0.0, 0.0};
  const ViewEvaluation without_cost =
      evaluate_view_oracle(costs, two, free, cpu);
  EXPECT_GE(with_cost.time_s, without_cost.time_s);
}

TEST(EvaluateViewOracle, MismatchedViewThrows) {
  const hw::Platform platform = hw::make_tx2();
  const dnn::Graph g = dnn::make_alexnet(1);
  const clustering::PowerView wrong({{0, 5}}, 5);
  EXPECT_THROW(
      evaluate_view_oracle(cost_plane(platform, g, 0), wrong, platform, 0),
      std::invalid_argument);
}

TEST(BestHyperparamClass, ReturnsGridIndex) {
  const hw::Platform platform = hw::make_tx2();
  DatasetGenConfig cfg;
  cfg.cpu_level_for_labels = platform.max_cpu_level();
  const dnn::Graph g = dnn::make_googlenet(8);
  const GridSweep sweep = sweep_hyperparam_grid(
      g, cost_plane(platform, g, cfg.cpu_level_for_labels), platform, cfg);
  EXPECT_LT(sweep.best_class, cfg.grid.size());
  EXPECT_EQ(sweep.view.num_layers(), g.size());
  EXPECT_EQ(sweep.eval.block_levels.size(), sweep.view.block_count());
}

class GenerateDatasetsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    platform_ = new hw::Platform(hw::make_tx2());
    DatasetGenConfig cfg;
    cfg.num_networks = 25;
    cfg.seed = 7;
    data_ = new GeneratedDatasets(generate_datasets(*platform_, cfg));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete platform_;
  }

  static hw::Platform* platform_;
  static GeneratedDatasets* data_;
};

hw::Platform* GenerateDatasetsTest::platform_ = nullptr;
GeneratedDatasets* GenerateDatasetsTest::data_ = nullptr;

TEST_F(GenerateDatasetsTest, CountsMatchConfig) {
  EXPECT_EQ(data_->networks_generated, 25u);
  EXPECT_EQ(data_->dataset_a.size(), 25u);
  EXPECT_EQ(data_->dataset_b.size(), data_->blocks_generated);
  EXPECT_GE(data_->blocks_generated, 25u);  // at least one block per net
}

TEST_F(GenerateDatasetsTest, FeatureDimensionsMatchExtractors) {
  EXPECT_EQ(data_->dataset_a.structural.cols(), features::kStructuralDim);
  EXPECT_EQ(data_->dataset_a.statistics.cols(), features::kStatisticsDim);
  EXPECT_EQ(data_->dataset_b.structural.cols(), features::kStructuralDim);
  EXPECT_EQ(data_->dataset_b.statistics.cols(), features::kStatisticsDim);
}

TEST_F(GenerateDatasetsTest, LabelsWithinRanges) {
  const HyperparamGrid grid;
  for (int label : data_->dataset_a.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(static_cast<std::size_t>(label), grid.size());
  }
  for (int label : data_->dataset_b.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(static_cast<std::size_t>(label), platform_->gpu_levels());
  }
}

TEST_F(GenerateDatasetsTest, FrequencyLabelsAreDiverse) {
  // Different blocks must prefer different frequencies, otherwise the
  // decision model has nothing to learn.
  std::set<int> unique(data_->dataset_b.labels.begin(),
                       data_->dataset_b.labels.end());
  EXPECT_GE(unique.size(), 2u);
}

TEST_F(GenerateDatasetsTest, DeterministicInSeed) {
  DatasetGenConfig cfg;
  cfg.num_networks = 5;
  cfg.seed = 7;
  const GeneratedDatasets a = generate_datasets(*platform_, cfg);
  const GeneratedDatasets b = generate_datasets(*platform_, cfg);
  EXPECT_EQ(a.dataset_a.labels, b.dataset_a.labels);
  EXPECT_EQ(a.dataset_b.labels, b.dataset_b.labels);
}

TEST(GenerateDatasets, ZeroNetworksThrows) {
  const hw::Platform platform = hw::make_tx2();
  DatasetGenConfig cfg;
  cfg.num_networks = 0;
  EXPECT_THROW(generate_datasets(platform, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace powerlens::core
