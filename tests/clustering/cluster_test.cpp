// End-to-end Algorithm 1 behaviour on real zoo models.
#include "clustering/cluster.hpp"

#include "dnn/builder.hpp"
#include "dnn/models.hpp"
#include "features/depthwise.hpp"

#include <gtest/gtest.h>

namespace powerlens::clustering {
namespace {

ClusteringConfig default_config(double eps = 0.10, std::size_t min_pts = 3) {
  ClusteringConfig c;
  c.hyper = {eps, min_pts};
  return c;
}

TEST(BuildPowerView, CoversEveryZooModel) {
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    const dnn::Graph g = spec.build(1);
    const PowerView v = build_power_view(g, default_config());
    EXPECT_EQ(v.num_layers(), g.size()) << spec.name;
    EXPECT_GE(v.block_count(), 1u) << spec.name;
    // Block counts in Table 1 are single digits; tens would mean ping-pong.
    EXPECT_LE(v.block_count(), 16u) << spec.name;
  }
}

TEST(BuildPowerView, SmallNetworksFormFewBlocks) {
  // Paper observation: alexnet and mobilenet lack enough operators for
  // fine clustering and end up with very few blocks.
  const dnn::Graph g = dnn::make_alexnet(1);
  const PowerView v = build_power_view(g, default_config());
  EXPECT_LE(v.block_count(), 3u);
}

TEST(BuildPowerView, RepeatedTransformerBlocksCluster) {
  // Paper observation: "PowerLens treats the connections of repeated
  // transformer modules in the ViT model as a large power block".
  const dnn::Graph g = dnn::make_vit_base_16(1);
  const PowerView v = build_power_view(g, default_config());
  std::size_t largest = 0;
  for (const PowerBlock& b : v.blocks()) largest = std::max(largest, b.size());
  // The encoder stack is > 100 layers; the dominant block must cover most
  // of it.
  EXPECT_GT(largest, g.size() / 2);
}

TEST(BuildPowerView, EpsilonControlsGranularity) {
  const dnn::Graph g = dnn::make_resnet152(1);
  const PowerView coarse = build_power_view(g, default_config(0.9, 3));
  const PowerView fine = build_power_view(g, default_config(0.02, 3));
  EXPECT_LE(coarse.block_count(), fine.block_count());
}

TEST(BuildPowerView, MinPtsLimitsTinyBlocks) {
  const dnn::Graph g = dnn::make_googlenet(1);
  const PowerView v = build_power_view(g, default_config(0.08, 6));
  for (const PowerBlock& b : v.blocks()) {
    EXPECT_GE(b.size(), 6u);
  }
}

TEST(BuildPowerView, DeterministicForSameInputs) {
  const dnn::Graph g = dnn::make_resnet34(1);
  const PowerView a = build_power_view(g, default_config());
  const PowerView b = build_power_view(g, default_config());
  ASSERT_EQ(a.block_count(), b.block_count());
  for (std::size_t i = 0; i < a.block_count(); ++i) {
    EXPECT_EQ(a.blocks()[i], b.blocks()[i]);
  }
}

TEST(BuildPowerView, PrecomputedDistancesMatchDirectPath) {
  const dnn::Graph g = dnn::make_resnet34(1);
  const ClusteringConfig cfg = default_config();
  const PowerView direct = build_power_view(g, cfg);

  const linalg::Matrix features =
      features::DepthwiseFeatureExtractor::extract(g);
  linalg::Workspace ws;
  linalg::Matrix dist;
  EpsAdjacency adj;
  power_distances_adj_into(features, cfg.distance, cfg.hyper.eps, ws, dist,
                           adj);
  const PowerView via = build_power_view_from_adjacency(dist, adj, cfg.hyper);
  ASSERT_EQ(direct.block_count(), via.block_count());
  for (std::size_t i = 0; i < direct.block_count(); ++i) {
    EXPECT_EQ(direct.blocks()[i], via.blocks()[i]);
  }
}

TEST(BuildPowerView, SpacingRegularizationSeparatesDistantTwins) {
  // Two identical conv stages separated by a long middle stage of different
  // character: with the spacing penalty the twins must not merge into one
  // block (they are not adjacent).
  dnn::GraphBuilder b("twins", {1, 64, 56, 56});
  dnn::NodeId x = b.input();
  for (int i = 0; i < 6; ++i) {
    x = b.conv2d(x, 64, 3, 1, 1);
    x = b.relu(x);
  }
  for (int i = 0; i < 12; ++i) x = b.gelu(x);
  for (int i = 0; i < 6; ++i) {
    x = b.conv2d(x, 64, 3, 1, 1);
    x = b.relu(x);
  }
  const dnn::Graph g = b.build();
  const PowerView v = build_power_view(g, default_config(0.15, 3));
  // At least three blocks: head convs / middle gelu run / tail convs.
  EXPECT_GE(v.block_count(), 3u);
}

}  // namespace
}  // namespace powerlens::clustering
