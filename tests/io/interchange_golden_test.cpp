// Committed-bytes pin for the binary interchange: today's writers must
// reproduce tests/data/interchange_golden/{graph,plan,cost_table}.plbin
// byte-for-byte on every kernel dispatch path, and the readers must decode
// those committed bytes to the fixture objects. A failure here means the
// wire format drifted — bump io::kFormatVersion, teach the readers both
// layouts, and re-baseline with `regen_goldens <this directory>`.
// (model_bundle.plbin, the fourth golden, is pinned by
// tests/nn/serialize_golden_test.cpp.)
//
// The fixtures (tests/support/interchange_fixtures.hpp) are integer/literal
// built precisely so this test is meaningful: any byte difference is format
// drift, never host math.
#include "io/interchange.hpp"

#include "io/binary.hpp"
#include "linalg/kernels.hpp"
#include "support/interchange_fixtures.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace powerlens::io {
namespace {

std::vector<std::byte> committed(const std::string& leaf) {
  return read_file(std::string(PL_TEST_DATA_DIR) + "/interchange_golden/" +
                   leaf);
}

// Encodes all three fixtures on the given dispatch path.
struct EncodedSet {
  std::vector<std::byte> graph;
  std::vector<std::byte> plan;
  std::vector<std::byte> cost_table;
};

EncodedSet encode_all() {
  EncodedSet out;
  out.graph = encode_graph(testing::golden_graph());
  out.plan = encode_plan(testing::golden_plan(),
                         testing::golden_plan_signature());
  out.cost_table = encode_cost_table(testing::golden_cost_table());
  return out;
}

TEST(InterchangeGoldenTest, WritersReproduceCommittedBytes) {
  const EncodedSet enc = encode_all();
  EXPECT_EQ(enc.graph, committed("graph.plbin"));
  EXPECT_EQ(enc.plan, committed("plan.plbin"));
  EXPECT_EQ(enc.cost_table, committed("cost_table.plbin"));
}

TEST(InterchangeGoldenTest, BytesIdenticalAcrossDispatchPaths) {
  // The encoders must not depend on the SIMD dispatch choice. Scalar is
  // always available; compare it against whatever path the host selected.
  const EncodedSet native = encode_all();
  linalg::kernels::set_path_override(linalg::kernels::DispatchPath::kScalar);
  const EncodedSet scalar = encode_all();
  linalg::kernels::set_path_override(std::nullopt);
  EXPECT_EQ(scalar.graph, native.graph);
  EXPECT_EQ(scalar.plan, native.plan);
  EXPECT_EQ(scalar.cost_table, native.cost_table);
  EXPECT_EQ(scalar.graph, committed("graph.plbin"));
  EXPECT_EQ(scalar.plan, committed("plan.plbin"));
  EXPECT_EQ(scalar.cost_table, committed("cost_table.plbin"));
}

TEST(InterchangeGoldenTest, ReadersDecodeCommittedBytesToFixtures) {
  EXPECT_EQ(decode_graph(committed("graph.plbin")), testing::golden_graph());
  const PlanRecord plan = decode_plan(committed("plan.plbin"));
  EXPECT_EQ(plan.graph_signature, testing::golden_plan_signature());
  EXPECT_EQ(plan.plan, testing::golden_plan());
  EXPECT_EQ(decode_cost_table(committed("cost_table.plbin")),
            testing::golden_cost_table());
}

TEST(InterchangeGoldenTest, CommittedCostTableArraysArePageAligned) {
  // Format version 1 starts the doubles at a kPageAlign boundary relative
  // to file offset 0; no reader relies on it, but the bytes must not move.
  const std::vector<std::byte> bytes = committed("cost_table.plbin");
  ASSERT_GT(bytes.size(), kPageAlign);
  const RecordInfo info = inspect_record(bytes);
  EXPECT_EQ(info.type, RecordType::kCostTable);
  // First array byte = first 8-byte-aligned offset at or after the metadata;
  // the writer pads to kPageAlign, so total size must exceed one page.
  EXPECT_EQ(bytes.size() % sizeof(double), 0u);
}

}  // namespace
}  // namespace powerlens::io
