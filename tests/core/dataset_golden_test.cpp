// Pins the labelling pipeline's and the planner's output bytes. Dataset
// generation and the oracle planner run Algorithm 1 across the whole
// hyperparameter grid; their labels, features and plans are reduced to an
// FNV-1a digest of their hex-float text and compared with recorded
// constants. The planner half does the same for every planning entry point:
// optimize, optimize_batch, replan_batch and plan_for_view from one small
// fixed training run per platform, plus the joint CPU+GPU oracle and the
// batch-size sweep. A change that moves any label, feature or plan bit fails
// here until the constants are re-recorded (a deliberate re-baselining,
// DESIGN §5f). Both the auto-detected kernel dispatch path and the forced
// scalar path must hit the same constants.
//
// The property half checks EpsAdjacency::narrowed — the per-eps adjacency
// the sweep derives from one widest sweep — against a full-matrix scan of
// the scalar oracle matrix for every grid eps.
#include "core/ablation.hpp"
#include "core/dataset_gen.hpp"
#include "core/extensions.hpp"
#include "core/powerlens.hpp"
#include "dnn/models.hpp"
#include "dnn/random_gen.hpp"
#include "features/depthwise.hpp"
#include "hw/platform.hpp"
#include "linalg/kernels.hpp"
#include "support/distance_oracles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string_view>
#include <vector>

namespace powerlens::core {
namespace {

// FNV-1a over the text of every value: doubles as C99 hex floats (exact
// bits, locale-free), integers in decimal, each followed by a separator.
class Digest {
 public:
  void text(std::string_view s) {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ULL;
    }
  }
  void num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a;", v);
    text(buf);
  }
  void integer(long long v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld;", v);
    text(buf);
  }
  void matrix(const linalg::Matrix& m) {
    integer(static_cast<long long>(m.rows()));
    integer(static_cast<long long>(m.cols()));
    for (const double v : m.data()) num(v);
  }
  void dataset(const nn::Dataset& d) {
    matrix(d.structural);
    matrix(d.statistics);
    for (const int l : d.labels) integer(l);
  }
  void plan(const OptimizationPlan& p) {
    num(p.hyper.eps);
    integer(static_cast<long long>(p.hyper.min_pts));
    for (const clustering::PowerBlock& b : p.view.blocks()) {
      integer(static_cast<long long>(b.begin));
      integer(static_cast<long long>(b.end));
    }
    for (const std::size_t l : p.block_levels) {
      integer(static_cast<long long>(l));
    }
    for (const hw::PresetPoint& pt : p.schedule.points) {
      integer(static_cast<long long>(pt.layer_index));
      integer(static_cast<long long>(pt.gpu_level));
    }
    num(p.predicted_pass_time_s);
    num(p.predicted_pass_energy_j);
  }
  void joint(const JointPlan& p) {
    for (const clustering::PowerBlock& b : p.view.blocks()) {
      integer(static_cast<long long>(b.begin));
      integer(static_cast<long long>(b.end));
    }
    for (const std::size_t l : p.gpu_levels) integer(static_cast<long long>(l));
    for (const std::size_t l : p.cpu_levels) integer(static_cast<long long>(l));
    for (const auto* points : {&p.schedule.points, &p.schedule.cpu_points}) {
      for (const hw::PresetPoint& pt : *points) {
        integer(static_cast<long long>(pt.layer_index));
        integer(static_cast<long long>(pt.gpu_level));
      }
    }
  }
  void batch_choice(const BatchChoice& c) {
    integer(c.batch);
    num(c.ee_images_per_joule);
    num(c.pass_latency_s);
    integer(static_cast<long long>(c.blocks));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::uint64_t datasets_digest(const hw::Platform& platform) {
  DatasetGenConfig cfg;
  cfg.num_networks = 40;
  cfg.seed = 42;
  const GeneratedDatasets out = generate_datasets(platform, cfg);
  Digest d;
  d.dataset(out.dataset_a);
  d.dataset(out.dataset_b);
  return d.value();
}

std::uint64_t oracle_plans_digest() {
  const hw::Platform tx2 = hw::make_tx2();  // PowerLens keeps a reference
  const PowerLens framework(tx2);
  Digest d;
  for (const char* name : {"alexnet", "resnet152", "vgg19"}) {
    d.plan(framework.optimize_oracle(dnn::make_model(name, 8)));
  }
  return d.value();
}

// Recorded at the commit before the labelling sweep moved onto the fused
// lower-triangle path (dense matrix + per-eps rescans).
constexpr std::uint64_t kTx2DatasetsDigest = 0x0355fd1441114b2dULL;
constexpr std::uint64_t kAgxDatasetsDigest = 0x23e1ad01e026afd5ULL;
constexpr std::uint64_t kTx2OraclePlansDigest = 0xc303d5a27a944ca1ULL;

void expect_recorded_digests() {
  EXPECT_EQ(datasets_digest(hw::make_tx2()), kTx2DatasetsDigest);
  EXPECT_EQ(datasets_digest(hw::make_agx()), kAgxDatasetsDigest);
  EXPECT_EQ(oracle_plans_digest(), kTx2OraclePlansDigest);
}

// Every learned planning entry point on one platform, from a small fixed
// training run: optimize and optimize_batch on the zoo, replan_batch of
// those plans under non-unit scales and a GPU cap below the top level, and
// plan_for_view (learned and oracle) on random partitions.
std::uint64_t learned_plans_digest(const hw::Platform& platform) {
  PowerLensConfig cfg;
  cfg.dataset.num_networks = 40;
  cfg.dataset.seed = 42;
  cfg.train_hyper.epochs = 10;
  cfg.train_decision.epochs = 10;
  PowerLens framework(platform, cfg);
  framework.train();

  std::vector<dnn::Graph> graphs;
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    graphs.push_back(spec.build(8));
  }
  Digest d;
  std::vector<OptimizationPlan> plans;
  std::vector<const dnn::Graph*> ptrs;
  for (const dnn::Graph& g : graphs) {
    plans.push_back(framework.optimize(g));
    d.plan(plans.back());
    ptrs.push_back(&g);
  }
  for (const OptimizationPlan& p : framework.optimize_batch(ptrs)) d.plan(p);

  std::vector<ReplanRequest> requests(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    requests[i].graph = &graphs[i];
    requests[i].base = &plans[i];
    requests[i].signals.time_scale = 1.25;
    requests[i].signals.energy_scale = 0.8;
    requests[i].signals.gpu_level_cap = platform.max_gpu_level() - 2;
    requests[i].signals.inter_pass_gap_s = 0.004;
  }
  for (const OptimizationPlan& p : framework.replan_batch(requests)) {
    d.plan(p);
  }

  for (std::size_t i = 0; i < graphs.size(); i += 3) {
    const dnn::Graph& g = graphs[i];
    const clustering::PowerView view =
        random_power_view(g.size(), std::min<std::size_t>(6, g.size()), i);
    d.plan(framework.plan_for_view(g, view));
    d.plan(framework.plan_for_view(g, view, /*use_oracle=*/true));
  }
  return d.value();
}

// The joint CPU+GPU oracle and the batch-size sweep, with and without a
// latency budget.
std::uint64_t extension_plans_digest(const hw::Platform& platform) {
  Digest d;
  const std::int64_t candidates[] = {1, 4, 16};
  for (const char* name : {"alexnet", "resnet152", "vgg19"}) {
    d.joint(optimize_joint_oracle(dnn::make_model(name, 8), platform));
    const auto build = [name](std::int64_t b) {
      return dnn::make_model(name, b);
    };
    const BatchChoice free_choice =
        choose_batch_size(build, candidates, platform);
    d.batch_choice(free_choice);
    d.batch_choice(choose_batch_size(build, candidates, platform,
                                     free_choice.pass_latency_s * 0.5));
  }
  return d.value();
}

// Recorded before the planning entry points became compositions of one
// staged planner.
constexpr std::uint64_t kTx2LearnedPlansDigest = 0x45f9987bfa75bf5fULL;
constexpr std::uint64_t kAgxLearnedPlansDigest = 0xa2681442c426c549ULL;
constexpr std::uint64_t kTx2ExtensionPlansDigest = 0xa8af5c2b35ac525fULL;
constexpr std::uint64_t kAgxExtensionPlansDigest = 0xae9274da78a81348ULL;

void expect_recorded_planner_digests() {
  EXPECT_EQ(learned_plans_digest(hw::make_tx2()), kTx2LearnedPlansDigest);
  EXPECT_EQ(learned_plans_digest(hw::make_agx()), kAgxLearnedPlansDigest);
  EXPECT_EQ(extension_plans_digest(hw::make_tx2()), kTx2ExtensionPlansDigest);
  EXPECT_EQ(extension_plans_digest(hw::make_agx()), kAgxExtensionPlansDigest);
}

struct ScalarPathGuard {
  ScalarPathGuard() {
    linalg::kernels::set_path_override(linalg::kernels::DispatchPath::kScalar);
  }
  ~ScalarPathGuard() { linalg::kernels::set_path_override(std::nullopt); }
};

TEST(DatasetGolden, DigestsMatchRecordedOnAutoPath) {
  expect_recorded_digests();
}

TEST(DatasetGolden, DigestsMatchRecordedOnScalarPath) {
  const ScalarPathGuard guard;
  expect_recorded_digests();
}

TEST(PlannerGolden, DigestsMatchRecordedOnAutoPath) {
  expect_recorded_planner_digests();
}

TEST(PlannerGolden, DigestsMatchRecordedOnScalarPath) {
  const ScalarPathGuard guard;
  expect_recorded_planner_digests();
}

// narrowed() at every grid eps equals a full scan of the oracle matrix at
// that eps, starting from the pipeline's adjacency at the largest grid eps.
void expect_narrowing_matches_full_scan(const linalg::Matrix& depthwise,
                                        const DatasetGenConfig& cfg,
                                        const std::string& what) {
  const std::vector<double>& eps_values = cfg.grid.eps_values;
  const double widest_eps =
      *std::max_element(eps_values.begin(), eps_values.end());
  linalg::Workspace ws;
  linalg::Matrix dist;
  clustering::EpsAdjacency widest;
  clustering::power_distances_adj_into(depthwise, cfg.distance, widest_eps,
                                       ws, dist, widest);
  const linalg::Matrix full =
      testing::power_distances_oracle(depthwise, cfg.distance);
  for (const double eps : eps_values) {
    const clustering::EpsAdjacency narrow = widest.narrowed(dist, eps);
    const clustering::EpsAdjacency scan = testing::adjacency_oracle(full, eps);
    ASSERT_EQ(narrow.n, scan.n) << what << " eps=" << eps;
    EXPECT_EQ(narrow.offsets, scan.offsets) << what << " eps=" << eps;
    EXPECT_EQ(narrow.neighbors, scan.neighbors) << what << " eps=" << eps;
  }
}

TEST(NarrowedAdjacency, MatchesFullScanAtEveryGridEpsOnRandomGraphs) {
  const DatasetGenConfig cfg;
  dnn::RandomDnnGenerator generator(7);
  for (int g = 0; g < 50; ++g) {
    const dnn::Graph graph = generator.generate();
    expect_narrowing_matches_full_scan(
        features::DepthwiseFeatureExtractor::extract(graph), cfg,
        graph.name());
  }
}

TEST(NarrowedAdjacency, MatchesFullScanOnRankZeroTable) {
  // Every column constant: the scaled table is all zero, the covariance has
  // rank 0, and only the spacing penalty separates layers.
  linalg::Matrix constant(24, 5);
  for (std::size_t r = 0; r < constant.rows(); ++r) {
    for (std::size_t c = 0; c < constant.cols(); ++c) {
      constant(r, c) = 1.5 + static_cast<double>(c);
    }
  }
  expect_narrowing_matches_full_scan(constant, DatasetGenConfig{}, "rank-0");
}

}  // namespace
}  // namespace powerlens::core
