// Golden record for the model-bundle codec.
//
// tests/data/interchange_golden/model_bundle.plbin freezes a trained
// TwoStageMlp (5+3 inputs, 16-unit hidden layers, 7 classes, seed 77, five
// Adam steps) and its structural scaler as a kModelBundle record for
// platform "golden": both model slots hold that predictor, with an identity
// statistics scaler. The probe inputs below, and the FNV-1a digests of the
// outputs the model gave on them when it was frozen, pin two contracts:
//
//  - backward compatibility: today's reader loads the committed bytes and
//    reproduces bit-identical outputs (a trained bundle on disk keeps
//    working across releases);
//  - format stability: re-encoding the decoded models reproduces the
//    committed bytes exactly, so any layout change fails here.
//
// After a DELIBERATE numerics change in the kernel layer, the failing
// digest assertion prints the new value to record.
#include "core/powerlens.hpp"
#include "io/binary.hpp"
#include "linalg/stats.hpp"
#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace powerlens::nn {
namespace {

using linalg::Matrix;

const Matrix& probe_structural() {
  static const Matrix m = Matrix::from_rows(8, 5, std::vector<double>{
    -0x1.8c1da014dda1p-2, -0x1.42c3b2b72217p-5, 0x1.5fa75918ca314p-1,
    -0x1.fdd85e535a476p-3, -0x1.971d689089fddp-1, -0x1.bfaac1719697bp-5,
    0x1.f01d3e119ca68p+0, 0x1.003e6b2410a3cp+0, 0x1.e15bc7159ee3dp-4,
    -0x1.b7b63856f155ap-1, -0x1.4bec5ef0151f1p-1, 0x1.59615b28dae98p-1,
    -0x1.862918a96f613p+0, -0x1.fb44447f674b2p-2, 0x1.d3d936bb14019p-1,
    -0x1.411f30a818c17p-1, -0x1.be9f74004bbf8p+0, -0x1.8a92f3f2823f8p-3,
    0x1.f7c06fcee6acbp-1, -0x1.b0dfe9e3cc4a2p-1, -0x1.e14b1cc63d869p+0,
    -0x1.9ff45550aa811p-2, -0x1.746f185746795p-1, -0x1.5738037d337ap-2,
    0x1.05cabfd96fdd6p+0, 0x1.58fac3ace52b5p+0, -0x1.eca58207a7e6dp-2,
    0x1.4c8f3a3a493bbp+0, -0x1.31e4aae8b8d7dp+1, 0x1.686e7f3a02464p-1,
    0x1.928b3b9020a4dp-2, -0x1.4147be7228ef2p+0, -0x1.2166767419febp-2,
    0x1.b25d7241b9865p-1, -0x1.52609c12d50dfp-2, 0x1.11a52a54197ap-1,
    -0x1.93a6b43a16081p-2, 0x1.135a456d7438cp-6, 0x1.74d9617198b86p-4,
    0x1.3fe1945735639p-10});
  return m;
}

const Matrix& probe_statistics() {
  static const Matrix m = Matrix::from_rows(8, 3, std::vector<double>{
    0x1.56a490d9a3969p-1, 0x1.5a3565c73c97ep-3, -0x1.c8b0938d54d1bp-6,
    0x1.72edab6c3ff42p+0, 0x1.b30bfdbb9ac8ap+0, 0x1.823423bba71bdp-2,
    -0x1.001cbd957d277p-5, -0x1.35ed5289ea1b7p-2, -0x1.7897738705af4p-2,
    -0x1.001e10b930de4p-1, 0x1.3c1ab672e0f31p-3, 0x1.a93a9986748bbp-1,
    0x1.8bcf55f246343p-1, 0x1.a4c2619462974p-1, -0x1.3deeba09855f2p-1,
    0x1.634c049fb8365p+1, 0x1.0a974685d9f45p-1, 0x1.045001a8777eep+1,
    0x1.6bb74bf10cf59p+0, 0x1.e9c4933d967b7p+0, 0x1.1f86a980368e9p+0,
    0x1.ea27ef396c233p-1, 0x1.135fe246fe089p+1, -0x1.477d7cd58f68dp-1});
  return m;
}

// Digests of Matrix::encode of the structural scaler's transform of the
// structural probe (8x5) and of the MLP's logits on both probes (8x7).
constexpr std::uint64_t kScaledDigest = 0x8873b82d0e8f265dULL;
constexpr std::uint64_t kLogitsDigest = 0x8554b01f904f194dULL;

std::uint64_t digest(const Matrix& m) {
  io::Writer w;
  m.encode(w);
  return io::fnv1a(w.take());
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// One model slot of the bundle, decoded component by component.
struct Slot {
  linalg::StandardScaler structural;
  linalg::StandardScaler statistics;
  std::optional<TwoStageMlp> mlp;
};

class SerializeGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    bytes_ = io::read_file(std::string(PL_TEST_DATA_DIR) +
                           "/interchange_golden/model_bundle.plbin");
    io::Cursor c(
        io::parse_record(bytes_, io::RecordType::kModelBundle).payload);
    platform_ = c.str();
    for (Slot& slot : slots_) {
      slot.structural = linalg::StandardScaler::decode(c);
      slot.statistics = linalg::StandardScaler::decode(c);
      slot.mlp.emplace(TwoStageMlp::decode(c));
    }
    c.expect_done("golden bundle");
  }

  std::vector<std::byte> bytes_;
  std::string platform_;
  Slot slots_[2];
};

TEST_F(SerializeGolden, ReloadedModelsReproduceRecordedOutputsBitwise) {
  EXPECT_EQ(platform_, "golden");
  for (const Slot& slot : slots_) {
    const std::uint64_t scaled =
        digest(slot.structural.transform(probe_structural()));
    const std::uint64_t logits =
        digest(slot.mlp->forward_const(probe_structural(), probe_statistics()));
    EXPECT_EQ(scaled, kScaledDigest) << "scaled digest now " << hex(scaled);
    EXPECT_EQ(logits, kLogitsDigest) << "logits digest now " << hex(logits);
    EXPECT_EQ(slot.statistics.transform(probe_statistics()),
              probe_statistics());
  }
}

TEST_F(SerializeGolden, ReserializationReproducesGoldenBytes) {
  io::Writer w;
  w.str(platform_);
  for (const Slot& slot : slots_) {
    slot.structural.encode(w);
    slot.statistics.encode(w);
    slot.mlp->encode(w);
  }
  // EXPECT_TRUE: a failing EXPECT_EQ would print all 39754 bytes.
  EXPECT_TRUE(io::frame_record(io::RecordType::kModelBundle, w.take()) ==
              bytes_)
      << "model codec drifted from the golden record";

  // The bundle-level codec reads and writes the same layout.
  const core::ModelBundle bundle = core::decode_model_bundle(bytes_);
  EXPECT_TRUE(core::encode_model_bundle(bundle.platform, bundle.hyper,
                                        bundle.decision) == bytes_);
}

TEST_F(SerializeGolden, SecondRoundTripIsAFixedPoint) {
  io::Writer first;
  slots_[0].mlp->encode(first);
  const std::vector<std::byte> first_bytes = first.take();
  io::Cursor c(first_bytes);
  const TwoStageMlp again = TwoStageMlp::decode(c);
  io::Writer second;
  again.encode(second);
  EXPECT_TRUE(first_bytes == second.take());
  EXPECT_EQ(digest(again.forward_const(probe_structural(), probe_statistics())),
            kLogitsDigest);
}

}  // namespace
}  // namespace powerlens::nn
