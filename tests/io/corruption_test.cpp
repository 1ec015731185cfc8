// Corruption gauntlet (ctest label `fuzz`): EVERY single-byte corruption of
// a serialized graph, plan, cost-table and model-bundle record — all 8 bit
// flips of every byte, plus
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
#include "linalg/stats.hpp"
#include "nn/mlp.hpp"
#include "support/interchange_fixtures.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

// The largest single allocation since the last reset, so a test can show a
// decoder rejected a forged count before allocating what it promised.
namespace {
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

// Out of line, so GCC does not pair the malloc below with the frees in the
// deletes it would otherwise inline (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_allocation.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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

// Checksum-valid cost-table records with forged dimensions fail typed
// before anything the dimensions promise is allocated: a consistent
// product near 2^40 doubles, products that overflow size_t, and a
// num_layers whose run length (num_layers + 1) wraps to zero.
TEST(CorruptionGauntletTest, ForgedCostTableDimsFailBeforeAllocating) {
  struct Forged {
    std::uint64_t num_layers, gpu_levels, cpu_slots, array_len;
    const char* what;
  };
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const Forged cases[] = {
      {(std::uint64_t{1} << 30) - 1, 1024, 1, std::uint64_t{1} << 40,
       "consistent product near 2^40"},
      {std::uint64_t{1} << 62, 16, 1, 0, "overflowing product"},
      {std::uint64_t{1} << 62, 16, 1, kMax, "overflowing product, huge len"},
      {kMax, 1, 1, 0, "run length wraps to zero"},
  };
  for (const Forged& f : cases) {
    Writer w;
    w.u64(f.num_layers);
    w.u64(f.gpu_levels);
    w.u64(1);  // cpu ladder of one level, mapped to slot 0
    w.u64(0);
    w.u64(f.cpu_slots);
    w.u64(f.array_len);
    w.pad_to(kPageAlign, kHeaderSize);
    // Exactly the promised arrays when they are small, so the dimension
    // checks (not the framing) have to reject the record.
    for (std::uint64_t i = 0; i < 2 * std::min<std::uint64_t>(f.array_len, 4);
         ++i) {
      w.f64(1.0);
    }
    const std::vector<std::byte> record =
        frame_record(RecordType::kCostTable, w.take());
    g_largest_allocation = 0;
    try {
      decode_cost_table(record);
      ADD_FAILURE() << f.what << ": forged dimensions accepted";
    } catch (const Error&) {
      // Typed rejection, whichever check fired first.
    } catch (const std::exception& e) {
      ADD_FAILURE() << f.what << ": foreign exception escaped: " << e.what();
    }
    EXPECT_LT(g_largest_allocation.load(), std::size_t{1} << 20) << f.what;
  }
}

// A small model-bundle payload: hand-shaped predictors (2 structural and 1
// statistics input, 2-unit hidden layers, 3 classes) keep the quadratic
// flip-times-checksum gauntlet fast.
void encode_small_predictor(Writer& w) {
  for (const linalg::Matrix& samples : {linalg::Matrix{{0.0, 1.0}, {2.0, 5.0}},
                                        linalg::Matrix{{0.5}, {-1.5}}}) {
    linalg::StandardScaler scaler;
    scaler.fit(samples);
    scaler.encode(w);
  }
  nn::TwoStageMlpConfig cfg;
  cfg.structural_dim = 2;
  cfg.statistics_dim = 1;
  cfg.hidden1 = cfg.hidden2 = cfg.hidden3 = 2;
  cfg.num_classes = 3;
  nn::TwoStageMlp(cfg).encode(w);
}

std::vector<std::byte> small_bundle() {
  Writer w;
  w.str("tx2");
  encode_small_predictor(w);
  encode_small_predictor(w);
  return frame_record(RecordType::kModelBundle, w.take());
}

TEST(CorruptionGauntletTest, ModelBundleRecordSurvivesEverySingleByteFlip) {
  const std::vector<std::byte> bytes = small_bundle();
  // Value equality for a bundle is re-encoding to the same bytes.
  run_gauntlet(
      bytes,
      [](const std::vector<std::byte>& b) {
        const core::ModelBundle m = core::decode_model_bundle(b);
        return core::encode_model_bundle(m.platform, m.hyper, m.decision);
      },
      bytes);
}

// Checksum-valid records whose scaler or matrix count promises more values
// than the payload holds fail as truncation before anything that size is
// allocated.
TEST(CorruptionGauntletTest, ForgedModelBundleCountsFailBeforeAllocating) {
  const auto expect_truncated = [](Writer payload, const char* what) {
    const std::vector<std::byte> record =
        frame_record(RecordType::kModelBundle, payload.take());
    g_largest_allocation = 0;
    try {
      core::decode_model_bundle(record);
      ADD_FAILURE() << what << ": forged count accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kTruncated) << what << ": " << e.what();
    }
    EXPECT_LT(g_largest_allocation.load(), std::size_t{1} << 20) << what;
  };
  for (const std::uint64_t n :
       {std::uint64_t{2305843009213693951}, std::uint64_t{100000000}}) {
    Writer scaler;
    scaler.str("tx2");
    scaler.u64(n);
    for (int i = 0; i < 8; ++i) scaler.f64(1.0);
    expect_truncated(std::move(scaler), "scaler count");
  }
  // A first-layer weight matrix of 2^20 x 2^20 behind valid scalers.
  Writer matrix;
  matrix.str("tx2");
  Writer slot;
  encode_small_predictor(slot);
  const std::vector<std::byte> slot_bytes = slot.take();
  Cursor c(slot_bytes);
  linalg::StandardScaler::decode(c);
  linalg::StandardScaler::decode(c);
  matrix.bytes(std::span(slot_bytes).first(c.offset()));
  for (int i = 0; i < 6; ++i) matrix.u64(2);  // the MLP's dims
  matrix.i64(0);                               // Adam step
  matrix.u8(1);                                // ReLU flag
  matrix.u64(std::uint64_t{1} << 20);
  matrix.u64(std::uint64_t{1} << 20);
  for (int i = 0; i < 8; ++i) matrix.f64(1.0);
  expect_truncated(std::move(matrix), "matrix shape");
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
  EXPECT_EQ(fuzz_try_decode(small_bundle()), 1);
  EXPECT_EQ(fuzz_try_decode({}), 0);
  std::vector<std::byte> garbage(64, std::byte{0xa5});
  EXPECT_EQ(fuzz_try_decode(garbage), 0);
}

}  // namespace
}  // namespace powerlens::io
