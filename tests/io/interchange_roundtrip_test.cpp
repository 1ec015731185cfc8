// Binary interchange round-trip properties: load(save(x)) is field-exact
// for every record type, over the whole model zoo, 200 random generator
// graphs, plans, plan snapshots, and cost tables through bytes and files —
// and a plan computed from a reloaded graph is bitwise identical to one
// computed from the original.
#include "io/interchange.hpp"

#include "core/powerlens.hpp"
#include "dnn/models.hpp"
#include "dnn/random_gen.hpp"
#include "hw/platform.hpp"
#include "io/error.hpp"
#include "serve/signature.hpp"
#include "support/interchange_fixtures.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace powerlens::io {
namespace {

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "interchange_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + leaf;
}

TEST(InterchangeGraphTest, ZooRoundTripsFieldExact) {
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    const dnn::Graph g = spec.build(10);
    const dnn::Graph back = decode_graph(encode_graph(g));
    EXPECT_EQ(back, g) << spec.name;
    EXPECT_EQ(serve::graph_signature(back), serve::graph_signature(g))
        << spec.name;
  }
}

TEST(InterchangeGraphTest, TwoHundredRandomGraphsRoundTrip) {
  dnn::RandomDnnGenerator gen(/*seed=*/11);
  for (int i = 0; i < 200; ++i) {
    const dnn::Graph g = gen.generate();
    const dnn::Graph back = decode_graph(encode_graph(g));
    ASSERT_EQ(back, g) << "random graph " << i;
  }
}

TEST(InterchangeGraphTest, FileRoundTripAndReEncodeIsStable) {
  const std::string path = temp_path("graph.plbin");
  const dnn::Graph g = testing::golden_graph();
  save_graph(path, g);
  const dnn::Graph back = load_graph(path);
  EXPECT_EQ(back, g);
  // Encoding is a pure function of the graph: re-encoding the reloaded
  // graph reproduces the bytes exactly.
  EXPECT_EQ(encode_graph(back), encode_graph(g));
  std::remove(path.c_str());
}

TEST(InterchangeGraphTest, PlanFromReloadedGraphIsBitwiseIdentical) {
  const hw::Platform platform = hw::make_tx2();
  core::PowerLensConfig cfg;
  cfg.dataset.num_networks = 40;
  cfg.dataset.seed = 5;
  cfg.train_hyper.epochs = 15;
  cfg.train_decision.epochs = 15;
  core::PowerLens framework(platform, cfg);
  framework.train();

  for (const char* name : {"alexnet", "mobilenet_v3", "googlenet"}) {
    const dnn::Graph g = dnn::make_model(name, 10);
    const dnn::Graph back = decode_graph(encode_graph(g));
    ASSERT_EQ(serve::graph_signature(back), serve::graph_signature(g));
    const core::OptimizationPlan a = framework.optimize(g);
    const core::OptimizationPlan b = framework.optimize(back);
    EXPECT_EQ(a, b) << name;
    // Bitwise: the serialized plan bytes match too.
    EXPECT_EQ(encode_plan(a), encode_plan(b)) << name;
  }
}

TEST(InterchangePlanTest, RoundTripsFieldExact) {
  const core::OptimizationPlan plan = testing::golden_plan();
  const PlanRecord back =
      decode_plan(encode_plan(plan, testing::golden_plan_signature()));
  EXPECT_EQ(back.graph_signature, testing::golden_plan_signature());
  EXPECT_EQ(back.plan, plan);
}

TEST(InterchangePlanTest, DefaultPlanRoundTrips) {
  // An untrained/hand-built plan with an empty view must survive too.
  const core::OptimizationPlan empty;
  const PlanRecord back = decode_plan(encode_plan(empty));
  EXPECT_EQ(back.graph_signature, 0u);
  EXPECT_EQ(back.plan, empty);
}

TEST(InterchangePlanTest, SnapshotRoundTripsInOrder) {
  const std::string path = temp_path("plans.plbin");
  std::vector<PlanRecord> records;
  records.push_back({0x1111, testing::golden_plan()});
  records.push_back({0x2222, core::OptimizationPlan{}});
  records.push_back({0x3333, testing::golden_plan()});
  save_plan_snapshot(path, records);
  const std::vector<PlanRecord> back = load_plan_snapshot(path);
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i], records[i]) << i;
  }
  std::remove(path.c_str());
}

TEST(InterchangeCostTableTest, HeapRoundTripFieldExact) {
  const hw::CostTable table = testing::golden_cost_table();
  const hw::CostTable back = decode_cost_table(encode_cost_table(table));
  EXPECT_EQ(back, table);
}

TEST(InterchangeCostTableTest, RealPlatformTableRoundTripsBothLoadModes) {
  const hw::Platform platform = hw::make_tx2();
  const dnn::Graph g = testing::golden_graph();
  const hw::CostTable table(platform, g.layers());
  const std::string path = temp_path("costs.plbin");
  save_cost_table(path, table);

  // The file loader and a decode of the same bytes give the same table.
  const hw::CostTable loaded = load_cost_table(path);
  EXPECT_EQ(loaded, table);
  EXPECT_EQ(decode_cost_table(read_file(path)), table);
  // Queries agree on a mid-graph block (one subtraction off the prefix
  // arrays in both).
  const auto a = table.block_cost(3, 9, 4, platform.max_cpu_level());
  const auto b = loaded.block_cost(3, 9, 4, platform.max_cpu_level());
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.energy_j, b.energy_j);
  std::remove(path.c_str());
}

TEST(InterchangeErrorTest, EmptyAndTruncatedFilesFailTyped) {
  const std::string path = temp_path("bad.plbin");
  {
    std::ofstream os(path, std::ios::binary);
  }
  EXPECT_THROW(load_graph(path), TruncatedError);

  // A valid record truncated mid-payload.
  const std::vector<std::byte> good = encode_graph(testing::golden_graph());
  {
    std::ofstream os(path, std::ios::binary);
    os.write(reinterpret_cast<const char*>(good.data()),
             static_cast<std::streamsize>(good.size() / 2));
  }
  EXPECT_THROW(load_graph(path), TruncatedError);
  std::remove(path.c_str());
}

TEST(InterchangeErrorTest, MissingFileThrows) {
  // OS-level open failure, not a format error — plain runtime_error, not a
  // typed io::Error (those are reserved for malformed bytes).
  EXPECT_THROW(load_graph("/nonexistent/dir/graph.plbin"),
               std::runtime_error);
}

TEST(InterchangeErrorTest, WrongRecordTypeIsTyped) {
  const std::vector<std::byte> plan = encode_plan(testing::golden_plan());
  EXPECT_THROW(decode_graph(plan), WrongRecordTypeError);
  const std::vector<std::byte> graph =
      encode_graph(testing::golden_graph());
  EXPECT_THROW(decode_plan(graph), WrongRecordTypeError);
  EXPECT_THROW(decode_cost_table(graph), WrongRecordTypeError);
}

TEST(InterchangeErrorTest, InspectValidatesThroughChecksum) {
  std::vector<std::byte> bytes = encode_cost_table(
      testing::golden_cost_table());
  const RecordInfo info = inspect_record(bytes);
  EXPECT_EQ(info.type, RecordType::kCostTable);
  EXPECT_EQ(info.total_bytes, bytes.size());
  bytes.back() ^= std::byte{0x01};
  EXPECT_THROW(inspect_record(bytes), ChecksumMismatchError);
}

}  // namespace
}  // namespace powerlens::io
