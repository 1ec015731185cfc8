// Corruption gauntlet (ctest label `fuzz`): EVERY single-byte corruption of
// a serialized graph and plan record — all 8 bit flips of every byte, plus
// every truncation length — must produce a typed io::Error or decode to a
// value-equal object. Never a crash, never a foreign exception, never UB
// (the CI sanitizer job runs this suite under ASan+UBSan).
//
// The guarantee is structural, not probabilistic: the FNV-1a step
// (h ^ b) * prime is a bijection on u64, so any single-byte payload change
// always changes the checksum; header bytes are covered by the explicit
// magic/version/type/size validation that runs before the checksum.
#include "io/interchange.hpp"

#include "io/error.hpp"
#include "support/interchange_fixtures.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace powerlens::io {
namespace {

// Decodes `bytes` with `decode`; a typed io::Error passes, a value equal to
// `original` passes, anything else fails the test at `context`.
template <typename Decode, typename Value>
void expect_error_or_equal(const std::vector<std::byte>& bytes,
                           const Decode& decode, const Value& original,
                           const std::string& context) {
  try {
    const auto back = decode(bytes);
    EXPECT_EQ(back, original) << context
                              << ": decoded successfully but not value-equal";
  } catch (const Error&) {
    // Typed rejection — the expected outcome for a detected corruption.
  } catch (const std::exception& e) {
    ADD_FAILURE() << context << ": foreign exception escaped: " << e.what();
  }
}

template <typename Decode, typename Value>
void run_gauntlet(std::vector<std::byte> bytes, const Decode& decode,
                  const Value& original) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      const std::byte saved = bytes[i];
      bytes[i] ^= static_cast<std::byte>(1u << bit);
      expect_error_or_equal(bytes, decode, original,
                            "byte " + std::to_string(i) + " bit " +
                                std::to_string(bit));
      bytes[i] = saved;
    }
  }
  // Every proper prefix must be rejected (a shorter buffer can never carry
  // a checksum-valid record of the original length).
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::byte> prefix(bytes.begin(),
                                        bytes.begin() + len);
    EXPECT_THROW(decode(prefix), Error) << "prefix length " << len;
  }
}

TEST(CorruptionGauntletTest, GraphRecordSurvivesEverySingleByteFlip) {
  const dnn::Graph g = testing::golden_graph();
  run_gauntlet(
      encode_graph(g),
      [](const std::vector<std::byte>& b) { return decode_graph(b); }, g);
}

// A well-formed, checksum-valid record whose layer costs sum past int64:
// decode must reject it as malformed instead of handing out a graph whose
// total_flops() overflows (it printed a negative GFLOP count on import).
TEST(CorruptionGauntletTest, GraphWithOverflowingCostsIsMalformed) {
  const dnn::Graph g = testing::golden_graph();
  const auto with_flops = [&](std::int64_t a, std::int64_t b) {
    std::vector<dnn::Layer> layers(g.layers().begin(), g.layers().end());
    std::vector<std::vector<dnn::NodeId>> producers;
    for (dnn::NodeId id = 0; id < g.size(); ++id) {
      producers.emplace_back(g.producers(id).begin(), g.producers(id).end());
    }
    layers[1].flops = a;
    layers[2].flops = b;
    return dnn::Graph(g.name(), std::move(layers), std::move(producers));
  };
  constexpr std::int64_t k62 = std::int64_t{1} << 62;
  EXPECT_THROW(decode_graph(encode_graph(with_flops(k62, k62))),
               MalformedError);
  // Above the 2^53 per-layer cap on its own.
  EXPECT_THROW(decode_graph(encode_graph(with_flops(k62, 0))),
               MalformedError);
  // Exactly at the cap still decodes, and the totals stay exact.
  const std::int64_t cap = dnn::Graph::kMaxLayerCost;
  const dnn::Graph at_cap = with_flops(cap, cap);
  const dnn::Graph back = decode_graph(encode_graph(at_cap));
  EXPECT_EQ(back, at_cap);
  EXPECT_GT(back.total_flops(), 2 * (cap - 1));
}

TEST(CorruptionGauntletTest, PlanRecordSurvivesEverySingleByteFlip) {
  const PlanRecord original{testing::golden_plan_signature(),
                            testing::golden_plan()};
  run_gauntlet(
      encode_plan(original.plan, original.graph_signature),
      [](const std::vector<std::byte>& b) { return decode_plan(b); },
      original);
}

TEST(CorruptionGauntletTest, CostTableRecordSurvivesEverySingleByteFlip) {
  const hw::CostTable table = testing::golden_cost_table();
  run_gauntlet(
      encode_cost_table(table),
      [](const std::vector<std::byte>& b) { return decode_cost_table(b); },
      table);
}

TEST(CorruptionGauntletTest, HeaderFlipsProduceTheDocumentedErrorKinds) {
  const std::vector<std::byte> good = encode_graph(testing::golden_graph());
  const auto kind_of = [&](std::size_t offset, std::byte flip) {
    std::vector<std::byte> bytes = good;
    bytes[offset] ^= flip;
    try {
      decode_graph(bytes);
    } catch (const Error& e) {
      return e.kind();
    }
    ADD_FAILURE() << "header flip at offset " << offset << " was accepted";
    return ErrorKind::kMalformed;
  };
  // Layout: magic[0..4) version[4..6) type[6..8) size[8..16) checksum[16..24).
  EXPECT_EQ(kind_of(0, std::byte{0x01}), ErrorKind::kBadMagic);
  EXPECT_EQ(kind_of(4, std::byte{0x01}), ErrorKind::kVersionMismatch);
  EXPECT_EQ(kind_of(6, std::byte{0x01}), ErrorKind::kWrongRecordType);
  // Growing the size field past the buffer must read as truncation.
  EXPECT_EQ(kind_of(9, std::byte{0x80}), ErrorKind::kTruncated);
  // A checksum flip fails the checksum comparison itself.
  EXPECT_EQ(kind_of(16, std::byte{0x01}), ErrorKind::kChecksumMismatch);
  // A payload flip is caught by the checksum.
  EXPECT_EQ(kind_of(kHeaderSize, std::byte{0x01}),
            ErrorKind::kChecksumMismatch);
}

// fuzz_try_decode is the shared plfuzz/libFuzzer entry point: it must
// swallow io::Error (returning the accept count) and let nothing else out.
TEST(CorruptionGauntletTest, FuzzEntryPointCountsAndSwallows) {
  EXPECT_EQ(fuzz_try_decode(encode_graph(testing::golden_graph())), 1);
  EXPECT_EQ(fuzz_try_decode(encode_plan(testing::golden_plan())), 1);
  EXPECT_EQ(
      fuzz_try_decode(encode_cost_table(testing::golden_cost_table())), 1);
  EXPECT_EQ(fuzz_try_decode({}), 0);
  std::vector<std::byte> garbage(64, std::byte{0xa5});
  EXPECT_EQ(fuzz_try_decode(garbage), 0);
}

}  // namespace
}  // namespace powerlens::io
