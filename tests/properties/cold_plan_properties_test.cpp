// Property suite for the cold-plan pipeline:
//
//  - CSR-adjacency DBSCAN is field-exact against the dense-matrix oracle
//    (dbscan_reference) across eps/minPts sweeps, including all-noise,
//    single-cluster, and duplicate-point datasets.
//  - The fused triangular distance + ε-adjacency pipeline emits a lower
//    triangle + diagonal bitwise identical to the scalar full-matrix oracle
//    (the upper half is unspecified by contract), an adjacency equal to an
//    explicit ε-scan of the oracle matrix, and a PowerView equal to dense
//    DBSCAN + post-processing on it, on every dispatch path.
//  - The layer-major cost-table fill reproduces the direct per-cell
//    analytic model bit for bit on the full 12-model zoo, on every
//    available kernel dispatch path, from both the layer-span and the
//    pre-extracted-features constructors.
#include "clustering/cluster.hpp"
#include "dnn/models.hpp"
#include "hw/cost_table.hpp"
#include "linalg/kernels.hpp"
#include "support/distance_oracles.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

namespace powerlens {
namespace {

using clustering::DbscanParams;
using clustering::EpsAdjacency;
using clustering::kNoise;

// Every dispatch path this host can actually run (kScalar always, plus the
// compiled-in SIMD path when the CPU supports it).
std::vector<linalg::kernels::DispatchPath> available_paths() {
  std::vector<linalg::kernels::DispatchPath> paths;
  for (const auto p :
       {linalg::kernels::DispatchPath::kScalar,
        linalg::kernels::DispatchPath::kAvx2,
        linalg::kernels::DispatchPath::kNeon}) {
    if (linalg::kernels::path_available(p)) paths.push_back(p);
  }
  return paths;
}

struct PathGuard {
  explicit PathGuard(linalg::kernels::DispatchPath p) {
    linalg::kernels::set_path_override(p);
  }
  ~PathGuard() { linalg::kernels::set_path_override(std::nullopt); }
};

linalg::Matrix random_distance_matrix(std::mt19937_64& rng, std::size_t n) {
  linalg::Matrix d(n, n);
  std::uniform_real_distribution<double> dist(0.01, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      d(i, j) = d(j, i) = dist(rng);
    }
  }
  return d;
}

// Lower triangle + diagonal bitwise equality — the adjacency pipeline's
// output contract (its upper half is unspecified scratch).
void expect_lower_eq(const linalg::Matrix& got, const linalg::Matrix& want,
                     const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(got(i, j), want(i, j))
          << what << " at (" << i << ", " << j << ")";
    }
  }
}

linalg::Matrix random_features(std::mt19937_64& rng, std::size_t layers,
                               std::size_t features) {
  linalg::Matrix x(layers, features);
  std::normal_distribution<double> dist(0.0, 1.0);
  std::vector<std::vector<double>> prototypes(3,
                                              std::vector<double>(features));
  for (auto& p : prototypes) {
    for (double& v : p) v = 3.0 * dist(rng);
  }
  std::uniform_int_distribution<std::size_t> pick(0, prototypes.size() - 1);
  for (std::size_t i = 0; i < layers; ++i) {
    const std::vector<double>& p = prototypes[pick(rng)];
    for (std::size_t j = 0; j < features; ++j) {
      x(i, j) = p[j] + 0.3 * dist(rng);
    }
  }
  return x;
}

TEST(ColdPlanProperties, CsrDbscanMatchesDenseOracleSweep) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> size(2, 70);
    const std::size_t n = size(rng);
    const linalg::Matrix d = random_distance_matrix(rng, n);
    for (const double eps : {0.05, 0.2, 0.5, 0.95}) {
      for (const std::size_t min_pts :
           {std::size_t{1}, std::size_t{3}, std::size_t{6}}) {
        const DbscanParams p{eps, min_pts};
        EXPECT_EQ(testing::dbscan_dense(d, p), testing::dbscan_reference(d, p))
            << "seed=" << seed << " n=" << n << " eps=" << eps
            << " min_pts=" << min_pts;
      }
    }
  }
}

TEST(ColdPlanProperties, CsrDbscanOracleDegenerateDatasets) {
  // All-noise: every pairwise distance above eps.
  linalg::Matrix spread(6, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      spread(i, j) = i == j ? 0.0 : 10.0 + static_cast<double>(i + j);
    }
  }
  for (const std::size_t min_pts : {std::size_t{2}, std::size_t{4}}) {
    const DbscanParams p{0.5, min_pts};
    const std::vector<int> labels = testing::dbscan_dense(spread, p);
    EXPECT_EQ(labels, testing::dbscan_reference(spread, p));
    for (const int l : labels) EXPECT_EQ(l, kNoise);
  }

  // Single cluster: everything within eps of everything.
  std::mt19937_64 rng(9);
  linalg::Matrix tight = random_distance_matrix(rng, 12);
  const DbscanParams all{1.5, 4};
  const std::vector<int> one = testing::dbscan_dense(tight, all);
  EXPECT_EQ(one, testing::dbscan_reference(tight, all));
  for (const int l : one) EXPECT_EQ(l, 0);

  // Duplicate points: zero-distance groups.
  linalg::Matrix dup(8, 8, 0.0);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      dup(i, j) = (i / 4 == j / 4) ? 0.0 : 3.0;  // two groups of 4 clones
    }
  }
  for (const std::size_t min_pts :
       {std::size_t{2}, std::size_t{4}, std::size_t{5}}) {
    const DbscanParams p{0.1, min_pts};
    EXPECT_EQ(testing::dbscan_dense(dup, p),
              testing::dbscan_reference(dup, p))
        << "min_pts=" << min_pts;
  }
}

TEST(ColdPlanProperties, AdjacencyDistancePipelineBitwiseEqualsDensePath) {
  for (const auto path : available_paths()) {
    PathGuard guard(path);
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      std::mt19937_64 rng(seed);
      std::uniform_int_distribution<std::size_t> layer_count(3, 48);
      const std::size_t layers = layer_count(rng);
      const linalg::Matrix features = random_features(rng, layers, 6);
      const double eps = std::uniform_real_distribution<>(0.1, 0.8)(rng);
      const clustering::ClusteringHyperparams hyper{eps, 1 + seed % 4};
      clustering::DistanceParams params;

      const linalg::Matrix dense =
          testing::power_distances_oracle(features, params);

      linalg::Workspace ws;
      linalg::Matrix fused;
      EpsAdjacency adj;
      clustering::power_distances_adj_into(features, params, eps, ws, fused,
                                           adj);

      expect_lower_eq(fused, dense, "seed " + std::to_string(seed));
      const EpsAdjacency rescan = testing::adjacency_oracle(dense, eps);
      EXPECT_EQ(adj.offsets, rescan.offsets) << "seed " << seed;
      EXPECT_EQ(adj.neighbors, rescan.neighbors) << "seed " << seed;

      const clustering::PowerView dense_view = clustering::process_clusters(
          testing::dbscan_reference(dense, {hyper.eps, hyper.min_pts}), dense,
          {.min_block_layers = hyper.min_pts});
      EXPECT_EQ(clustering::build_power_view_from_adjacency(fused, adj, hyper),
                dense_view)
          << "seed " << seed;
    }
  }
}

TEST(ColdPlanProperties, ZooCostTableFillBitwiseOnAllDispatchPaths) {
  const hw::Platform platform = hw::make_agx();
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    const dnn::Graph graph = spec.build(/*batch=*/1);
    std::vector<hw::CostTable> per_path;
    for (const auto path : available_paths()) {
      PathGuard guard(path);
      const hw::CostTable table(platform, graph.layers());
      const std::size_t n = table.num_layers();
      // Layer-major fill vs the direct per-cell analytic model: prefix
      // queries from layer 0 accumulate in the same order, so equality is
      // bitwise, on a sampled set of planes (the full product is covered by
      // cost_table_test on one model).
      for (const std::size_t g :
           {std::size_t{0}, platform.gpu_levels() / 2,
            platform.max_gpu_level()}) {
        for (const std::size_t c :
             {std::size_t{0}, platform.max_cpu_level()}) {
          const hw::BlockCost direct =
              hw::analytic_block_cost(platform, graph.layers(), g, c);
          const hw::BlockCost memo = table.block_cost(0, n, g, c);
          EXPECT_EQ(memo.time_s, direct.time_s)
              << spec.name << " g=" << g << " c=" << c << " path="
              << linalg::kernels::path_name(path);
          EXPECT_EQ(memo.energy_j, direct.energy_j)
              << spec.name << " g=" << g << " c=" << c << " path="
              << linalg::kernels::path_name(path);
        }
      }
      // The features constructor is extract-then-fill: identical tables.
      const hw::CostFeatures features =
          hw::CostFeatures::extract(platform, graph.layers());
      std::vector<std::size_t> all_cpu(platform.cpu_levels());
      for (std::size_t c = 0; c < all_cpu.size(); ++c) all_cpu[c] = c;
      EXPECT_EQ(hw::CostTable(platform, features, all_cpu), table)
          << spec.name;
      per_path.push_back(table);
    }
    // And the fill itself is dispatch-path-invariant.
    for (std::size_t p = 1; p < per_path.size(); ++p) {
      EXPECT_EQ(per_path[p], per_path[0]) << spec.name;
    }
  }
}

}  // namespace
}  // namespace powerlens
