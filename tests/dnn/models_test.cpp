// Model-zoo validation against the published torchvision reference numbers:
// parameter counts and per-image FLOPs (2x the reported multiply-accumulates)
// must match within tolerance, which pins the builders to the real
// architectures the paper measured.
#include "dnn/models.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

namespace powerlens::dnn {
namespace {

struct ZooExpectation {
  const char* name;
  double params_m;   // torchvision parameter count, millions
  double gflops;     // per-image FLOPs (2 * GMACs)
  double tolerance;  // relative
};

// gtest appends the printed parameter to every ctest name, so print the
// stable fields only — its default raw-byte dump includes the `name`
// pointer, which changes from build to build.
void PrintTo(const ZooExpectation& e, std::ostream* os) {
  *os << e.name << " params=" << e.params_m << "M gflops=" << e.gflops;
}

class ModelZooTest : public ::testing::TestWithParam<ZooExpectation> {};

TEST_P(ModelZooTest, ParameterCountMatchesReference) {
  const ZooExpectation& e = GetParam();
  const Graph g = make_model(e.name, /*batch=*/1);
  const double params_m = static_cast<double>(g.total_params()) / 1e6;
  EXPECT_NEAR(params_m, e.params_m, e.params_m * e.tolerance)
      << g.name() << " params " << params_m << "M vs reference "
      << e.params_m << "M";
}

TEST_P(ModelZooTest, FlopsMatchReference) {
  const ZooExpectation& e = GetParam();
  const Graph g = make_model(e.name, /*batch=*/1);
  const double gflops = static_cast<double>(g.total_flops()) / 1e9;
  EXPECT_NEAR(gflops, e.gflops, e.gflops * e.tolerance)
      << g.name() << " " << gflops << " GFLOPs vs reference " << e.gflops;
}

TEST_P(ModelZooTest, GraphValidates) {
  const Graph g = make_model(GetParam().name, /*batch=*/4);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.batch_size(), 4);
  EXPECT_GT(g.depth(), 5u);
}

TEST_P(ModelZooTest, BatchScalesFlopsLinearly) {
  const Graph g1 = make_model(GetParam().name, 1);
  const Graph g8 = make_model(GetParam().name, 8);
  // Activation-dependent costs scale with batch; parameters do not.
  EXPECT_EQ(g1.total_params(), g8.total_params());
  EXPECT_NEAR(static_cast<double>(g8.total_flops()),
              8.0 * static_cast<double>(g1.total_flops()),
              0.01 * static_cast<double>(g8.total_flops()));
}

// Reference values: torchvision 0.12 model documentation. GoogLeNet is
// listed without auxiliary classifiers (the inference graph). The elementwise
// FLOP accounting differs slightly from pure-MAC counting, hence the
// per-model tolerances.
INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelZooTest,
    ::testing::Values(
        ZooExpectation{"alexnet", 61.10, 1.43, 0.05},
        ZooExpectation{"googlenet", 6.62, 3.01, 0.10},
        ZooExpectation{"vgg19", 143.67, 39.26, 0.05},
        ZooExpectation{"mobilenet_v3", 5.48, 0.43, 0.12},
        ZooExpectation{"densenet201", 20.01, 8.58, 0.10},
        ZooExpectation{"resnext101", 88.79, 32.83, 0.08},
        ZooExpectation{"resnet34", 21.80, 7.34, 0.05},
        ZooExpectation{"resnet152", 60.19, 23.03, 0.05},
        ZooExpectation{"regnet_x_32gf", 107.81, 63.59, 0.12},
        ZooExpectation{"regnet_y_128gf", 644.81, 255.05, 0.12},
        ZooExpectation{"vit_base_16", 86.57, 35.12, 0.08},
        ZooExpectation{"vit_base_32", 88.22, 8.83, 0.08}),
    [](const ::testing::TestParamInfo<ZooExpectation>& info) {
      return std::string(info.param.name);
    });

TEST(ModelZoo, HasTwelveModels) { EXPECT_EQ(model_zoo().size(), 12u); }

TEST(ModelZoo, UnknownNameThrows) {
  EXPECT_THROW(make_model("resnet9000", 1), std::invalid_argument);
}

TEST(ModelZoo, VitTreatsTokensAsSequence) {
  const Graph g = make_model("vit_base_16", 1);
  bool saw_attention = false;
  for (const Layer& l : g.layers()) {
    if (l.type == OpType::kMultiHeadAttention) {
      saw_attention = true;
      EXPECT_EQ(l.attn.seq_len, 197);
      EXPECT_EQ(l.attn.heads, 12);
    }
  }
  EXPECT_TRUE(saw_attention);
  EXPECT_EQ(g.count_of(OpType::kMultiHeadAttention), 12u);
}

TEST(ModelZoo, Vit32HasFewerTokens) {
  const Graph g = make_model("vit_base_32", 1);
  for (const Layer& l : g.layers()) {
    if (l.type == OpType::kMultiHeadAttention) {
      EXPECT_EQ(l.attn.seq_len, 50);  // 7*7 + class token
    }
  }
}

TEST(ModelZoo, DenseNetIsConcatHeavy) {
  const Graph g = make_model("densenet201", 1);
  // One concat per dense layer: 6 + 12 + 48 + 32 = 98.
  EXPECT_EQ(g.concat_count(), 98u);
}

TEST(ModelZoo, ResNetResidualCounts) {
  EXPECT_EQ(make_model("resnet34", 1).residual_count(), 16u);
  EXPECT_EQ(make_model("resnet152", 1).residual_count(), 50u);
}

TEST(ModelZoo, GoogLeNetHasNineInceptionModules) {
  const Graph g = make_model("googlenet", 1);
  EXPECT_EQ(g.concat_count(), 9u);
}

TEST(ModelZoo, MobileNetUsesDepthwiseConvs) {
  const Graph g = make_model("mobilenet_v3", 1);
  std::size_t depthwise = 0;
  for (const Layer& l : g.layers()) {
    if (l.type == OpType::kConv2d && l.conv.groups > 1) ++depthwise;
  }
  EXPECT_EQ(depthwise, 15u);  // one per inverted-residual block
}

TEST(ModelZoo, ResNextUsesGroupedConvs) {
  const Graph g = make_model("resnext101", 1);
  std::size_t grouped = 0;
  for (const Layer& l : g.layers()) {
    if (l.type == OpType::kConv2d && l.conv.groups == 32) ++grouped;
  }
  EXPECT_EQ(grouped, 33u);  // one 3x3 grouped conv per bottleneck block
}

}  // namespace
}  // namespace powerlens::dnn
