// PowerLens model-bundle persistence: a deployment loads the trained models
// and produces byte-identical plans without re-running the offline phase.
#include "core/powerlens.hpp"

#include "dnn/models.hpp"
#include "io/binary.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <locale>
#include <sstream>
#include <string>

namespace powerlens::core {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    platform_ = new hw::Platform(hw::make_tx2());
    PowerLensConfig cfg;
    cfg.dataset.num_networks = 40;
    cfg.train_hyper.epochs = 15;
    cfg.train_decision.epochs = 15;
    trained_ = new PowerLens(*platform_, cfg);
    trained_->train();
  }
  static void TearDownTestSuite() {
    delete trained_;
    delete platform_;
  }
  void TearDown() override { std::remove(path().c_str()); }
  static std::string path() {
    // Unique per test case: under `ctest -j` each case runs in its own
    // process, so a shared filename would let concurrent cases clobber
    // each other's save files.
    return ::testing::TempDir() + "powerlens_models_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".plbin";
  }

  static hw::Platform* platform_;
  static PowerLens* trained_;
};

hw::Platform* PersistenceTest::platform_ = nullptr;
PowerLens* PersistenceTest::trained_ = nullptr;

TEST_F(PersistenceTest, SaveLoadRoundTripReproducesPlans) {
  trained_->save_models(path());

  PowerLensConfig cfg;
  cfg.dataset.num_networks = 40;
  PowerLens restored(*platform_, cfg);
  EXPECT_FALSE(restored.trained());
  restored.load_models(path());
  EXPECT_TRUE(restored.trained());

  for (const char* name : {"alexnet", "resnet34", "vit_base_32"}) {
    const dnn::Graph g = dnn::make_model(name, 8);
    const OptimizationPlan a = trained_->optimize(g);
    const OptimizationPlan b = restored.optimize(g);
    EXPECT_EQ(a.hyper, b.hyper) << name;
    ASSERT_EQ(a.view.block_count(), b.view.block_count()) << name;
    EXPECT_EQ(a.block_levels, b.block_levels) << name;
  }
}

TEST_F(PersistenceTest, SaveBeforeTrainThrows) {
  PowerLens untrained(*platform_, {});
  EXPECT_THROW(untrained.save_models(path()), std::logic_error);
}

TEST_F(PersistenceTest, LoadMissingFileThrows) {
  PowerLens p(*platform_, {});
  EXPECT_THROW(p.load_models("/nonexistent/dir/models.plbin"),
               std::runtime_error);
}

TEST_F(PersistenceTest, LoadRejectsWrongPlatformBundle) {
  trained_->save_models(path());
  const hw::Platform agx = hw::make_agx();
  PowerLens other(agx, {});
  EXPECT_THROW(other.load_models(path()), std::runtime_error);
}

// A numpunct facet in the spirit of de_DE: ',' decimal point and '.'
// grouping every three digits. Installed process-globally it formats 1234.5
// as "1.234,5" in any fresh stream, so a bundle that went through text
// formatting would differ between locales.
class CommaDecimalPunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

// Swaps in a hostile global locale for one scope. Restores on destruction
// even when an assertion throws mid-test.
class GlobalLocaleGuard {
 public:
  GlobalLocaleGuard()
      : previous_(std::locale::global(
            std::locale(std::locale::classic(), new CommaDecimalPunct))) {}
  ~GlobalLocaleGuard() { std::locale::global(previous_); }
  GlobalLocaleGuard(const GlobalLocaleGuard&) = delete;
  GlobalLocaleGuard& operator=(const GlobalLocaleGuard&) = delete;

 private:
  std::locale previous_;
};

TEST_F(PersistenceTest, SaveLoadImmuneToHostileGlobalLocale) {
  // Save under the classic locale, reload under a comma-decimal one and
  // vice versa: the bundle format must not depend on the process locale at
  // either end.
  const std::string classic_bundle = path() + ".classic";
  trained_->save_models(classic_bundle);

  std::string hostile_bundle = path() + ".hostile";
  {
    GlobalLocaleGuard hostile;
    // Sanity-check the guard actually changes stream formatting: a freshly
    // created stream inherits the global locale.
    std::ostringstream probe;
    probe << 1234.5;
    ASSERT_EQ(probe.str(), "1.234,5")
        << "locale guard is not hostile enough to exercise the pins";

    trained_->save_models(hostile_bundle);

    PowerLensConfig cfg;
    cfg.dataset.num_networks = 40;
    PowerLens restored(*platform_, cfg);
    restored.load_models(classic_bundle);
    const dnn::Graph g = dnn::make_model("alexnet", 8);
    const OptimizationPlan a = trained_->optimize(g);
    const OptimizationPlan b = restored.optimize(g);
    EXPECT_EQ(a.hyper, b.hyper);
    EXPECT_EQ(a.block_levels, b.block_levels);
  }

  // Bytes written under the hostile locale must equal bytes written under
  // the classic one — the format is locale-independent, not merely
  // self-consistent.
  const auto slurp = [](const std::string& p) {
    std::ifstream is(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
  };
  const std::string classic_bytes = slurp(classic_bundle);
  ASSERT_FALSE(classic_bytes.empty());
  EXPECT_EQ(classic_bytes, slurp(hostile_bundle));

  // And a classic-locale process can reload the hostile-locale save.
  PowerLensConfig cfg;
  cfg.dataset.num_networks = 40;
  PowerLens restored(*platform_, cfg);
  restored.load_models(hostile_bundle);
  EXPECT_TRUE(restored.trained());

  std::remove(classic_bundle.c_str());
  std::remove(hostile_bundle.c_str());
}

TEST_F(PersistenceTest, LoadRejectsGarbageFile) {
  const std::string garbage = ::testing::TempDir() + "garbage.txt";
  {
    FILE* f = std::fopen(garbage.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a model bundle", f);
    std::fclose(f);
  }
  PowerLens p(*platform_, {});
  EXPECT_THROW(p.load_models(garbage), io::BadMagicError);
  std::remove(garbage.c_str());
}

// Shapes of one predictor slot in a hand-built bundle.
struct SlotShape {
  std::size_t structural_scaler = features::kStructuralDim;
  std::size_t statistics_scaler = features::kStatisticsDim;
  std::size_t structural_dim = features::kStructuralDim;
  std::size_t statistics_dim = features::kStatisticsDim;
  std::size_t num_classes = 0;
};

void encode_slot(io::Writer& w, const SlotShape& shape) {
  for (std::size_t n : {shape.structural_scaler, shape.statistics_scaler}) {
    linalg::StandardScaler scaler;
    scaler.fit(linalg::Matrix(2, n, 1.0));
    scaler.encode(w);
  }
  nn::TwoStageMlpConfig cfg;
  cfg.structural_dim = shape.structural_dim;
  cfg.statistics_dim = shape.statistics_dim;
  cfg.hidden1 = cfg.hidden2 = cfg.hidden3 = 4;
  cfg.num_classes = shape.num_classes;
  nn::TwoStageMlp(cfg).encode(w);
}

// Bundles checked against the framework at load, without training one.
class BundleValidationTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path().c_str()); }
  static std::string path() {
    return ::testing::TempDir() + "powerlens_bundle_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".plbin";
  }
  SlotShape hyper_shape() const {
    SlotShape s;
    s.num_classes = PowerLensConfig{}.dataset.grid.size();
    return s;
  }
  SlotShape decision_shape() const {
    SlotShape s;
    s.num_classes = platform_.gpu_levels();
    return s;
  }
  // Writes a bundle with the given slot shapes and loads it into a fresh
  // framework.
  void load(const SlotShape& hyper, const SlotShape& decision) const {
    io::Writer w;
    w.str(platform_.name);
    encode_slot(w, hyper);
    encode_slot(w, decision);
    io::write_file(path(),
                   io::frame_record(io::RecordType::kModelBundle, w.take()));
    PowerLens p(platform_, {});
    p.load_models(path());
  }

  const hw::Platform platform_ = hw::make_tx2();
};

// The text bundle format this repository used to write is not a .plbin
// record; there is no fallback reader.
TEST_F(BundleValidationTest, LegacyTextBundleIsBadMagic) {
  {
    FILE* f = std::fopen(path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("powerlens-models 1 tx2\nscaler 2305843009213693951\n", f);
    std::fclose(f);
  }
  PowerLens p(platform_, {});
  EXPECT_THROW(p.load_models(path()), io::BadMagicError);
  EXPECT_FALSE(p.trained());
}

TEST_F(BundleValidationTest, WellShapedBundleLoads) {
  EXPECT_NO_THROW(load(hyper_shape(), decision_shape()));
}

TEST_F(BundleValidationTest, HyperClassCountMustMatchTheGrid) {
  SlotShape hyper = hyper_shape();
  hyper.num_classes += 1;
  EXPECT_THROW(load(hyper, decision_shape()), io::MalformedError);
}

TEST_F(BundleValidationTest, DecisionClassCountMustMatchTheGpuLevels) {
  SlotShape decision = decision_shape();
  decision.num_classes -= 1;
  EXPECT_THROW(load(hyper_shape(), decision), io::MalformedError);
}

TEST_F(BundleValidationTest, MlpInputDimsMustMatchTheFeatures) {
  SlotShape hyper = hyper_shape();
  hyper.structural_dim = hyper.structural_scaler = 3;
  EXPECT_THROW(load(hyper, decision_shape()), io::MalformedError);
  SlotShape decision = decision_shape();
  decision.statistics_dim = decision.statistics_scaler = 3;
  EXPECT_THROW(load(hyper_shape(), decision), io::MalformedError);
}

TEST_F(BundleValidationTest, ScalerLengthMustMatchTheMlpInput) {
  SlotShape hyper = hyper_shape();
  hyper.structural_scaler -= 1;
  EXPECT_THROW(load(hyper, decision_shape()), io::MalformedError);
  SlotShape decision = decision_shape();
  decision.statistics_scaler += 1;
  EXPECT_THROW(load(hyper_shape(), decision), io::MalformedError);
}

}  // namespace
}  // namespace powerlens::core
