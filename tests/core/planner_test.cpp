// Properties of the staged planner that tie its entry points to each other.
//
// OracleSinglePass re-clusters on the test side: the oracle plan's view and
// levels must equal what Algorithm 1 at the winning hyperparameters, the
// feasibility merge and the cost-table argmin give when run from scratch.
// The oracle reuses the grid sweep's winning view instead of clustering a
// second time, so this guards the sweep and the serving cluster path
// against drifting apart.
//
// The metamorphic half: on one view, the learned levels can never price
// below the oracle's, because the oracle picks each block's energy argmin
// on the labelling plane.
#include "core/ablation.hpp"
#include "core/dataset_gen.hpp"
#include "core/powerlens.hpp"
#include "dnn/models.hpp"
#include "dnn/random_gen.hpp"
#include "hw/cost_table.hpp"
#include "hw/platform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace powerlens::core {
namespace {

void expect_oracle_matches_reclustering(const PowerLens& framework,
                                        const dnn::Graph& graph,
                                        const std::string& what) {
  const hw::Platform& platform = framework.platform();
  const DatasetGenConfig& cfg = framework.config().dataset;
  const OptimizationPlan plan = framework.optimize_oracle(graph);

  const std::size_t cpu_levels[] = {platform.max_cpu_level(),
                                    cfg.cpu_level_for_labels};
  const hw::CostTable costs(platform, graph.layers(), cpu_levels);
  clustering::ClusteringConfig cc;
  cc.hyper = plan.hyper;
  cc.distance = cfg.distance;
  const clustering::PowerView view = enforce_min_block_duration(
      costs, clustering::build_power_view(graph, cc), platform,
      feasible_block_duration(costs, platform));
  std::vector<std::size_t> levels;
  for (const clustering::PowerBlock& b : view.blocks()) {
    levels.push_back(
        costs.optimal_gpu_level(b.begin, b.end, cfg.cpu_level_for_labels));
  }
  EXPECT_EQ(plan.view, view) << what;
  EXPECT_EQ(plan.block_levels, levels) << what;
}

TEST(OracleSinglePass, MatchesTestSideReclusteringOnZooAndRandomGraphs) {
  for (const hw::Platform& platform : {hw::make_tx2(), hw::make_agx()}) {
    const PowerLens framework(platform);
    for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
      expect_oracle_matches_reclustering(
          framework, spec.build(8), std::string(spec.name) + " on " +
                                        platform.name);
    }
    dnn::RandomDnnGenerator generator(7);
    for (int g = 0; g < 100; ++g) {
      const dnn::Graph graph = generator.generate();
      expect_oracle_matches_reclustering(framework, graph,
                                         graph.name() + " on " + platform.name);
    }
  }
}

TEST(LearnedVsOracle, LearnedBlockEnergyNeverBelowOracleOnSameView) {
  const hw::Platform platform = hw::make_tx2();
  PowerLensConfig cfg;
  cfg.dataset.num_networks = 20;
  cfg.train_hyper.epochs = 5;
  cfg.train_decision.epochs = 5;
  PowerLens framework(platform, cfg);
  framework.train();
  const std::size_t cpu = framework.config().dataset.cpu_level_for_labels;
  const std::size_t cpu_levels[] = {cpu};

  std::uint64_t seed = 0;
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    const dnn::Graph g = spec.build(8);
    const hw::CostTable costs(platform, g.layers(), cpu_levels);
    for (const clustering::PowerView& view :
         {framework.optimize(g).view,
          random_power_view(g.size(), std::min<std::size_t>(5, g.size()),
                            ++seed)}) {
      const OptimizationPlan learned = framework.plan_for_view(g, view);
      const OptimizationPlan oracle =
          framework.plan_for_view(g, view, /*use_oracle=*/true);
      ASSERT_EQ(learned.view, oracle.view) << spec.name;
      for (std::size_t b = 0; b < view.block_count(); ++b) {
        const clustering::PowerBlock& blk = view.blocks()[b];
        EXPECT_GE(
            costs.block_cost(blk.begin, blk.end, learned.block_levels[b], cpu)
                .energy_j,
            costs.block_cost(blk.begin, blk.end, oracle.block_levels[b], cpu)
                .energy_j)
            << spec.name << " block " << b;
      }
    }
  }
}

}  // namespace
}  // namespace powerlens::core
