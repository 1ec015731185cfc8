#include "hw/cost_table.hpp"

#include "dnn/models.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace powerlens::hw {
namespace {

class CostTableTest : public ::testing::Test {
 protected:
  Platform platform_ = make_agx();
  dnn::Graph graph_ = dnn::make_resnet34(/*batch=*/8);
};

TEST_F(CostTableTest, FullGraphCostsAreBitwiseIdentical) {
  // Queries from layer 0 accumulate in the same order as the direct
  // computation, so they must match exactly — not just approximately.
  const CostTable table(platform_, graph_.layers());
  for (std::size_t g = 0; g < platform_.gpu_levels(); ++g) {
    for (std::size_t c = 0; c < platform_.cpu_levels(); ++c) {
      const BlockCost direct =
          analytic_block_cost(platform_, graph_.layers(), g, c);
      const BlockCost memo = table.block_cost(0, table.num_layers(), g, c);
      EXPECT_DOUBLE_EQ(memo.time_s, direct.time_s) << "g=" << g << " c=" << c;
      EXPECT_DOUBLE_EQ(memo.energy_j, direct.energy_j)
          << "g=" << g << " c=" << c;
    }
  }
}

TEST_F(CostTableTest, MidGraphBlocksMatchFreshComputation) {
  const CostTable table(platform_, graph_.layers());
  const std::size_t n = table.num_layers();
  const std::size_t begins[] = {1, n / 3, n / 2, n - 2};
  const std::size_t c = platform_.max_cpu_level();
  for (const std::size_t begin : begins) {
    for (std::size_t g = 0; g < platform_.gpu_levels(); ++g) {
      const std::span<const dnn::Layer> range =
          graph_.layers().subspan(begin);
      const BlockCost direct = analytic_block_cost(platform_, range, g, c);
      const BlockCost memo = table.block_cost(begin, n, g, c);
      EXPECT_NEAR(memo.time_s, direct.time_s, 1e-9 * direct.time_s);
      EXPECT_NEAR(memo.energy_j, direct.energy_j, 1e-9 * direct.energy_j);
    }
  }
}

TEST_F(CostTableTest, SingleLayerAndEmptyBlocks) {
  const CostTable table(platform_, graph_.layers());
  const std::size_t g = platform_.max_gpu_level();
  const std::size_t c = platform_.max_cpu_level();
  const BlockCost empty = table.block_cost(3, 3, g, c);
  EXPECT_EQ(empty.time_s, 0.0);
  EXPECT_EQ(empty.energy_j, 0.0);
  // Layer 0 of every zoo graph is the input pseudo-layer: zero cost.
  const BlockCost input = table.block_cost(0, 1, g, c);
  EXPECT_EQ(input.time_s, 0.0);
  const BlockCost one = table.block_cost(1, 2, g, c);
  const BlockCost direct = analytic_block_cost(
      platform_, graph_.layers().subspan(1, 1), g, c);
  EXPECT_DOUBLE_EQ(one.time_s, direct.time_s);
  EXPECT_DOUBLE_EQ(one.energy_j, direct.energy_j);
}

TEST_F(CostTableTest, OptimalGpuLevelMatchesFreeFunction) {
  const CostTable table(platform_, graph_.layers());
  const std::size_t n = table.num_layers();
  const std::size_t c = platform_.max_cpu_level();
  struct Range { std::size_t begin, end; };
  const Range ranges[] = {{0, n}, {0, n / 2}, {n / 3, n}, {n / 2, n / 2 + 3}};
  for (const auto& r : ranges) {
    const std::span<const dnn::Layer> span =
        graph_.layers().subspan(r.begin, r.end - r.begin);
    EXPECT_EQ(table.optimal_gpu_level(r.begin, r.end, c),
              optimal_gpu_level(platform_, span, c))
        << "[" << r.begin << ", " << r.end << ")";
  }
}

TEST_F(CostTableTest, SubsetConstructorCoversOnlyRequestedLevels) {
  const std::size_t keep = platform_.max_cpu_level();
  const std::size_t levels[] = {keep, keep};  // duplicates collapse
  const CostTable table(platform_, graph_.layers(), levels);
  EXPECT_TRUE(table.has_cpu_level(keep));
  ASSERT_GT(keep, 0u);
  EXPECT_FALSE(table.has_cpu_level(0));
  const BlockCost direct = analytic_block_cost(
      platform_, graph_.layers(), 2, keep);
  const BlockCost memo = table.block_cost(0, table.num_layers(), 2, keep);
  EXPECT_DOUBLE_EQ(memo.energy_j, direct.energy_j);
  EXPECT_THROW(table.block_cost(0, table.num_layers(), 2, 0),
               std::out_of_range);
}

TEST_F(CostTableTest, FeaturesConstructorMatchesLayerConstructor) {
  // The layer-span constructors are exactly extract-then-fill, so building
  // from pre-extracted features gives a field-identical table — the replan
  // loop's feature-sharing depends on this.
  const std::size_t levels[] = {0, platform_.max_cpu_level()};
  const CostTable from_layers(platform_, graph_.layers(), levels);
  const CostFeatures features =
      CostFeatures::extract(platform_, graph_.layers());
  const CostTable from_features(platform_, features, levels);
  EXPECT_EQ(from_features, from_layers);
}

TEST_F(CostTableTest, CopyOfOwningTableReboundsSpans) {
  const CostTable original(platform_, graph_.layers());
  const CostTable copy(original);
  EXPECT_EQ(copy, original);
  // The copy owns its own storage, not the source's.
  EXPECT_NE(copy.raw().time_prefix.data(), original.raw().time_prefix.data());
  EXPECT_NE(copy.raw().energy_prefix.data(),
            original.raw().energy_prefix.data());
}

TEST_F(CostTableTest, CopyOutlivesOwningSource) {
  const std::size_t g = platform_.max_gpu_level();
  const std::size_t c = platform_.max_cpu_level();
  CostTable copy;
  BlockCost expected{};
  {
    const CostTable original(platform_, graph_.layers());
    expected = original.block_cost(0, original.num_layers(), g, c);
    copy = original;
  }  // original destroyed; a span-sharing copy would now dangle
  const BlockCost got = copy.block_cost(0, copy.num_layers(), g, c);
  EXPECT_EQ(got.time_s, expected.time_s);
  EXPECT_EQ(got.energy_j, expected.energy_j);
}

TEST_F(CostTableTest, SelfAssignmentIsANoOp) {
  CostTable table(platform_, graph_.layers());
  const CostTable reference = table;
  CostTable& alias = table;
  table = alias;
  EXPECT_EQ(table, reference);
  const std::size_t g = platform_.max_gpu_level();
  const std::size_t c = platform_.max_cpu_level();
  EXPECT_EQ(table.block_cost(0, table.num_layers(), g, c).energy_j,
            reference.block_cost(0, reference.num_layers(), g, c).energy_j);
}

TEST_F(CostTableTest, RejectsBadQueriesAndLevels) {
  const CostTable table(platform_, graph_.layers());
  const std::size_t n = table.num_layers();
  const std::size_t g = 0;
  const std::size_t c = platform_.max_cpu_level();
  EXPECT_THROW(table.block_cost(2, 1, g, c), std::out_of_range);
  EXPECT_THROW(table.block_cost(0, n + 1, g, c), std::out_of_range);
  EXPECT_THROW(table.block_cost(0, n, platform_.gpu_levels(), c),
               std::out_of_range);
  EXPECT_THROW(table.block_cost(0, n, g, platform_.cpu_levels()),
               std::out_of_range);
  const std::size_t bad_level[] = {platform_.cpu_levels()};
  EXPECT_THROW(CostTable(platform_, graph_.layers(), bad_level),
               std::out_of_range);
}

}  // namespace
}  // namespace powerlens::hw
