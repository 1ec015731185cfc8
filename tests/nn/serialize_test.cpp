// Model codec: the .plbin encodings of Matrix, StandardScaler, DenseLayer
// and TwoStageMlp round-trip bitwise and reject malformed payloads with a
// typed io::Error before allocating what a forged count promises.
#include "core/powerlens.hpp"
#include "io/binary.hpp"
#include "linalg/stats.hpp"
#include "nn/mlp.hpp"
#include "nn/tensor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

namespace powerlens::nn {
namespace {

using linalg::Matrix;

template <typename Encode>
std::vector<std::byte> encoded(const Encode& encode) {
  io::Writer w;
  encode(w);
  return w.take();
}

TEST(Serialize, MatrixRoundTrip) {
  const Matrix m{{1.5, -2.25e-10}, {3.0, 1.0 / 3.0}};
  const std::vector<std::byte> bytes =
      encoded([&](io::Writer& w) { m.encode(w); });
  io::Cursor c(bytes);
  EXPECT_EQ(Matrix::decode(c), m);  // exact: doubles travel as bit patterns
  c.expect_done("matrix");
}

TEST(Serialize, VectorRoundTrip) {
  const std::vector<double> v{0.1, -7.0, 1e300, 0.0};
  const std::vector<std::byte> bytes =
      encoded([&](io::Writer& w) { w.f64s(v); });
  io::Cursor c(bytes);
  EXPECT_EQ(c.f64s(), v);
}

TEST(Serialize, ScalarRoundTrip) {
  const std::vector<std::byte> bytes =
      encoded([](io::Writer& w) { w.i64(-42); });
  io::Cursor c(bytes);
  EXPECT_EQ(c.i64(), -42);
}

// The record type is the binary format's tag: a checksum-valid record of
// another type is refused before its payload is read.
TEST(Serialize, TagMismatchThrows) {
  io::Writer w;
  w.str("tx2");
  const std::vector<std::byte> plan_record =
      io::frame_record(io::RecordType::kPlan, w.take());
  EXPECT_THROW(core::decode_model_bundle(plan_record),
               io::WrongRecordTypeError);
}

TEST(Serialize, TruncatedInputThrows) {
  // A 2x2 matrix promising 4 values with 2 present.
  const std::vector<std::byte> bytes = encoded([](io::Writer& w) {
    w.u64(2);
    w.u64(2);
    w.f64(1.0);
    w.f64(2.0);
  });
  io::Cursor c(bytes);
  EXPECT_THROW(Matrix::decode(c), io::TruncatedError);
}

TEST(Serialize, ForgedMatrixShapeFailsBeforeAllocating) {
  // rows x cols overflows 64 bits; the bound must not multiply them.
  for (const std::uint64_t rows : {std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    const std::vector<std::byte> bytes = encoded([&](io::Writer& w) {
      w.u64(rows);
      w.u64(std::uint64_t{1} << 40);
    });
    io::Cursor c(bytes);
    EXPECT_THROW(Matrix::decode(c), io::TruncatedError) << rows;
  }
}

TEST(Serialize, DenseLayerRoundTripPreservesOutputs) {
  std::mt19937_64 rng(5);
  DenseLayer layer(4, 3, /*relu=*/true, rng);
  const std::vector<std::byte> bytes =
      encoded([&](io::Writer& w) { layer.encode(w); });
  io::Cursor c(bytes);
  const DenseLayer restored = DenseLayer::decode(c);
  c.expect_done("layer");

  Matrix x(2, 4);
  std::normal_distribution<double> d(0.0, 1.0);
  for (double& v : x.data()) v = d(rng);
  EXPECT_EQ(layer.forward_const(x), restored.forward_const(x));
}

TEST(Serialize, DenseLayerLoadRejectsInconsistentShapes) {
  // relu + mismatched bias length vs weight rows.
  const auto layer_bytes = [](std::size_t bias, std::size_t moment_bias,
                              std::size_t moment_cols) {
    return encoded([&](io::Writer& w) {
      w.u8(1);
      Matrix(3, 4).encode(w);
      w.f64s(std::vector<double>(bias, 0.0));
      Matrix(3, 4).encode(w);
      Matrix(3, moment_cols).encode(w);
      w.f64s(std::vector<double>(moment_bias, 0.0));
      w.f64s(std::vector<double>(3, 0.0));
    });
  };
  {
    const std::vector<std::byte> good = layer_bytes(3, 3, 4);
    io::Cursor c(good);
    EXPECT_NO_THROW(DenseLayer::decode(c));
  }
  for (const auto& bad :
       {layer_bytes(2, 3, 4), layer_bytes(3, 2, 4), layer_bytes(3, 3, 5)}) {
    io::Cursor c(bad);
    EXPECT_THROW(DenseLayer::decode(c), io::MalformedError);
  }
}

TwoStageMlp small_mlp() {
  TwoStageMlpConfig cfg;
  cfg.structural_dim = 5;
  cfg.statistics_dim = 3;
  cfg.hidden1 = cfg.hidden2 = cfg.hidden3 = 16;
  cfg.num_classes = 7;
  cfg.seed = 77;
  TwoStageMlp model(cfg);
  return model;
}

TEST(Serialize, TwoStageMlpRoundTripPreservesPredictions) {
  TwoStageMlp model = small_mlp();

  // Push a few training steps so serialized Adam state matters.
  std::mt19937_64 rng(1);
  std::normal_distribution<double> d(0.0, 1.0);
  Matrix xs(8, 5), xt(8, 3);
  for (double& v : xs.data()) v = d(rng);
  for (double& v : xt.data()) v = d(rng);
  std::vector<int> labels{0, 1, 2, 3, 4, 5, 6, 0};
  for (int i = 0; i < 5; ++i) {
    const Matrix probs = softmax_rows(model.forward(xs, xt));
    model.backward(cross_entropy_grad(probs, labels));
    model.adam_step(1e-3, 0.9, 0.999, 1e-8);
  }

  const std::vector<std::byte> bytes =
      encoded([&](io::Writer& w) { model.encode(w); });
  io::Cursor c(bytes);
  TwoStageMlp restored = TwoStageMlp::decode(c);
  c.expect_done("mlp");
  EXPECT_EQ(model.forward_const(xs, xt), restored.forward_const(xs, xt));

  // Continuing training from the restored state matches exactly (Adam
  // moments and step count were persisted).
  const Matrix p1 = softmax_rows(model.forward(xs, xt));
  model.backward(cross_entropy_grad(p1, labels));
  model.adam_step(1e-3, 0.9, 0.999, 1e-8);
  const Matrix p2 = softmax_rows(restored.forward(xs, xt));
  restored.backward(cross_entropy_grad(p2, labels));
  restored.adam_step(1e-3, 0.9, 0.999, 1e-8);
  EXPECT_EQ(model.forward_const(xs, xt), restored.forward_const(xs, xt));
}

TEST(Serialize, TwoStageMlpDecodeRejectsTopologyMismatch) {
  const std::vector<std::byte> good =
      encoded([](io::Writer& w) { small_mlp().encode(w); });
  // The six u64 dims lead the payload: structural, statistics, hidden1-3,
  // classes. Each forged value breaks the chain somewhere.
  for (std::size_t field = 0; field < 6; ++field) {
    for (const std::uint64_t value :
         {std::uint64_t{0}, std::uint64_t{4}, ~std::uint64_t{0}}) {
      std::vector<std::byte> bytes = good;
      for (std::size_t b = 0; b < 8; ++b) {
        bytes[field * 8 + b] = static_cast<std::byte>(value >> (8 * b));
      }
      io::Cursor c(bytes);
      EXPECT_THROW(TwoStageMlp::decode(c), io::MalformedError)
          << "field " << field << " value " << value;
    }
  }
}

TEST(Serialize, StandardScalerRoundTrip) {
  const Matrix samples{{1.0, 10.0}, {2.0, 30.0}, {3.0, 20.0}};
  linalg::StandardScaler scaler;
  scaler.fit(samples);
  const std::vector<std::byte> bytes =
      encoded([&](io::Writer& w) { scaler.encode(w); });
  io::Cursor c(bytes);
  const linalg::StandardScaler restored = linalg::StandardScaler::decode(c);
  c.expect_done("scaler");
  EXPECT_EQ(scaler.transform(samples), restored.transform(samples));
}

// The scaler's header is its feature count: a forged count fails as
// truncation before the two arrays are sized.
TEST(Serialize, ScalerLoadRejectsBadHeader) {
  for (const std::uint64_t n :
       {std::uint64_t{2305843009213693951}, std::uint64_t{100000000},
        std::uint64_t{3}}) {
    const std::vector<std::byte> bytes = encoded([&](io::Writer& w) {
      w.u64(n);
      for (int i = 0; i < 4; ++i) w.f64(1.0);  // room for 2 features only
    });
    io::Cursor c(bytes);
    EXPECT_THROW(linalg::StandardScaler::decode(c), io::TruncatedError) << n;
  }
}

}  // namespace
}  // namespace powerlens::nn
