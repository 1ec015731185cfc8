#include "clustering/distance.hpp"

#include "dnn/models.hpp"
#include "dnn/random_gen.hpp"
#include "features/depthwise.hpp"
#include "linalg/stats.hpp"
#include "linalg/workspace.hpp"
#include "support/distance_oracles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace powerlens::clustering {
namespace {

using linalg::Matrix;

// The pipeline's output as a full symmetric matrix (its upper triangle is
// unspecified by contract; blended values are symmetric).
Matrix power_distances(const Matrix& scaled, const DistanceParams& p,
                       double eps = 1.0) {
  linalg::Workspace ws;
  Matrix out;
  EpsAdjacency adj;
  power_distance_matrix_adj_into(scaled, p, eps, ws, out, adj);
  return testing::symmetric_from_lower(out);
}

// Pure feature distances normalized to unit max (alpha = 1).
Matrix feature_distances(const Matrix& scaled,
                         FeatureMetric metric = FeatureMetric::kMahalanobis) {
  DistanceParams p;
  p.alpha = 1.0;
  p.metric = metric;
  return power_distances(scaled, p);
}

Matrix normalized(Matrix m) {
  double mx = 0.0;
  for (const double v : m.data()) mx = std::max(mx, v);
  for (double& v : m.data()) v /= mx;
  return m;
}

// Lower triangle + diagonal bitwise equal.
void expect_lower_bitwise(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(got(i, j), want(i, j)) << "(" << i << ", " << j << ")";
    }
  }
}

TEST(Mahalanobis, ZeroDiagonalSymmetric) {
  const Matrix x{{1.0, 2.0}, {3.0, 1.0}, {0.0, 5.0}, {2.0, 2.0}};
  const Matrix d = feature_distances(x);
  for (std::size_t i = 0; i < d.rows(); ++i) {
    EXPECT_DOUBLE_EQ(d(i, i), 0.0);
    for (std::size_t j = 0; j < d.cols(); ++j) {
      EXPECT_DOUBLE_EQ(d(i, j), d(j, i));
    }
  }
}

TEST(Mahalanobis, ScaleInvariance) {
  // Mahalanobis whitens by covariance: multiplying one feature column by a
  // constant must not change pairwise distances (unlike Euclidean).
  Matrix x{{1.0, 2.0}, {3.0, 1.0}, {0.0, 5.0}, {2.0, 2.0}, {4.0, 0.5}};
  const Matrix d1 = feature_distances(x);
  Matrix scaled = x;
  for (std::size_t r = 0; r < x.rows(); ++r) scaled(r, 1) *= 1000.0;
  const Matrix d2 = feature_distances(scaled);
  EXPECT_LT(Matrix::max_abs_diff(d1, d2), 1e-6);
}

TEST(Mahalanobis, EuclideanIsNotScaleInvariant) {
  Matrix x{{1.0, 2.0}, {3.0, 1.0}, {0.0, 5.0}};
  const Matrix d1 = feature_distances(x, FeatureMetric::kEuclidean);
  Matrix scaled = x;
  for (std::size_t r = 0; r < x.rows(); ++r) scaled(r, 1) *= 1000.0;
  const Matrix d2 = feature_distances(scaled, FeatureMetric::kEuclidean);
  // Normalized to unit max, so the shift shows in the distance ratios.
  EXPECT_GT(Matrix::max_abs_diff(d1, d2), 0.1);
}

TEST(Mahalanobis, HandlesConstantColumn) {
  // Constant features make the covariance singular; the pseudo-inverse must
  // cope without NaNs.
  const Matrix x{{1.0, 7.0}, {2.0, 7.0}, {3.0, 7.0}, {4.0, 7.0}};
  const Matrix d = feature_distances(x);
  for (std::size_t i = 0; i < d.rows(); ++i) {
    for (std::size_t j = 0; j < d.cols(); ++j) {
      EXPECT_FALSE(std::isnan(d(i, j)));
      EXPECT_GE(d(i, j), 0.0);
    }
  }
  EXPECT_GT(d(0, 3), 0.0);
}

TEST(Euclidean, MatchesHandComputed) {
  // Collinear points 5 apart: raw distances 5, 10, 5 normalize by 10.
  const Matrix x{{0.0, 0.0}, {3.0, 4.0}, {6.0, 8.0}};
  const Matrix d = feature_distances(x, FeatureMetric::kEuclidean);
  EXPECT_DOUBLE_EQ(d(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(d(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(d(2, 1), 0.5);
}

// alpha = 0 leaves the pure spacing penalty 1 - exp(-lambda |i - j|).
Matrix spacing_only(std::size_t n, double lambda) {
  Matrix x(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    x(r, 0) = static_cast<double>(r);
    x(r, 1) = static_cast<double>(r * r);
  }
  DistanceParams p;
  p.alpha = 0.0;
  p.lambda = lambda;
  return power_distances(x, p);
}

TEST(SpacingPenalty, ZeroOnDiagonalGrowsWithSeparation) {
  const Matrix r = spacing_only(5, 0.3);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(r(i, i), 0.0);
  EXPECT_LT(r(0, 1), r(0, 2));
  EXPECT_LT(r(0, 2), r(0, 4));
  EXPECT_NEAR(r(0, 1), 1.0 - std::exp(-0.3), 1e-12);
}

TEST(SpacingPenalty, LambdaControlsDecay) {
  const Matrix slow = spacing_only(4, 0.05);
  const Matrix fast = spacing_only(4, 1.0);
  EXPECT_LT(slow(0, 3), fast(0, 3));
}

TEST(SpacingPenalty, BadArgsThrow) {
  linalg::Workspace ws;
  Matrix out;
  EpsAdjacency adj;
  DistanceParams p;
  EXPECT_THROW(power_distance_matrix_adj_into(Matrix(), p, 0.5, ws, out, adj),
               std::invalid_argument);
  p.lambda = -0.1;
  EXPECT_THROW(power_distance_matrix_adj_into(Matrix{{1.0}, {2.0}}, p, 0.5,
                                              ws, out, adj),
               std::invalid_argument);
}

TEST(PowerDistance, AlphaBlendsTerms) {
  const Matrix x{{1.0, 0.0}, {0.0, 1.0}, {5.0, 5.0}};
  DistanceParams p;
  p.lambda = 0.5;

  p.alpha = 1.0;  // pure feature distance (normalized)
  const Matrix d_feat = power_distances(x, p);
  p.alpha = 0.0;  // pure spacing penalty
  const Matrix d_space = power_distances(x, p);
  EXPECT_LT(Matrix::max_abs_diff(d_space, spacing_only(3, 0.5)), 1e-12);

  p.alpha = 0.5;
  const Matrix d_mix = power_distances(x, p);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(d_mix(i, j), 0.5 * d_feat(i, j) + 0.5 * d_space(i, j),
                  1e-12);
    }
  }
}

TEST(PowerDistance, FeatureTermNormalizedToUnitMax) {
  const Matrix x{{0.0, 0.0}, {100.0, 0.0}, {0.0, 100.0}};
  const Matrix d = feature_distances(x);
  double mx = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) mx = std::max(mx, d(i, j));
  }
  EXPECT_NEAR(mx, 1.0, 1e-12);
}

TEST(PowerDistance, AlphaOutOfRangeThrows) {
  const Matrix x{{1.0}, {2.0}};
  DistanceParams p;
  p.alpha = 1.5;
  EXPECT_THROW(power_distances(x, p), std::invalid_argument);
}

TEST(PowerDistance, EuclideanMetricOption) {
  const Matrix x{{1.0, 2.0}, {3.0, 1.0}, {0.0, 5.0}};
  DistanceParams p;
  p.metric = FeatureMetric::kEuclidean;
  EXPECT_NO_THROW(power_distances(x, p));
}

TEST(Mahalanobis, EmptyThrows) {
  EXPECT_THROW(feature_distances(Matrix()), std::invalid_argument);
  EXPECT_THROW(feature_distances(Matrix(), FeatureMetric::kEuclidean),
               std::invalid_argument);
  EXPECT_THROW(testing::mahalanobis_distances_naive(Matrix()),
               std::invalid_argument);
}

Matrix random_table(std::size_t n, std::size_t d, std::uint64_t seed) {
  Matrix x(n, d);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  for (double& v : x.data()) v = dist(rng);
  return x;
}

TEST(MahalanobisWhitened, MatchesNaiveQuadraticFormOracle) {
  // The production path (whiten + Gram) and the O(n^2 d^2) per-pair
  // quadratic form compute the same metric through different
  // factorizations; they must agree to factorization rounding.
  for (const std::size_t n : {5ul, 17ul, 40ul}) {
    const Matrix x = random_table(n, 9, 1000 + n);
    const Matrix fast = feature_distances(x);
    const Matrix naive = normalized(testing::mahalanobis_distances_naive(x));
    EXPECT_LT(Matrix::max_abs_diff(fast, naive), 1e-8) << "n=" << n;
  }
}

TEST(MahalanobisWhitened, MatchesNaiveOnRankDeficientTable) {
  // Duplicate and constant columns force both factorizations to drop
  // directions; both paths must agree on the resulting degenerate metric.
  Matrix x = random_table(20, 3, 42);
  Matrix deficient(20, 6);
  for (std::size_t r = 0; r < 20; ++r) {
    deficient(r, 0) = x(r, 0);
    deficient(r, 1) = x(r, 1);
    deficient(r, 2) = x(r, 2);
    deficient(r, 3) = x(r, 0);        // duplicate
    deficient(r, 4) = 7.0;            // constant
    deficient(r, 5) = x(r, 1) * 2.0;  // linear combination
  }
  const Matrix fast = feature_distances(deficient);
  const Matrix naive =
      normalized(testing::mahalanobis_distances_naive(deficient));
  EXPECT_LT(Matrix::max_abs_diff(fast, naive), 1e-8);
}

TEST(MahalanobisWhitened, FactorKeepsJacobiRankOnZooAndRandomGraphs) {
  // The tables the planner and the labelling sweep factor: z-scored
  // depthwise features of the 12 zoo models, of 100 generated networks, and
  // of 7 generated networks with an eigenvalue within a decade of the cutoff
  // (e.g. rand_plain_21 of seed 7: eigenvalue 2.3e-11 of the largest, Schur
  // diagonal 2.6e-10), where a diagonal stop rule keeps one direction too
  // many. Their covariances are never full rank (constant feature columns).
  // The factor must keep exactly the rank the Jacobi oracle keeps, and the
  // whitened distances must match the per-pair quadratic form. Depthwise
  // features take no platform, so the TX2 and AGX planners factor these
  // same tables.
  std::vector<dnn::Graph> graphs;
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    graphs.push_back(spec.build(8));
  }
  dnn::RandomDnnGenerator gen(45);
  for (int i = 0; i < 100; ++i) graphs.push_back(gen.generate());
  const std::vector<std::pair<std::uint64_t, std::string>> near_cutoff = {
      {1, "rand_plain_100"}, {2, "rand_plain_96"}, {7, "rand_plain_21"},
      {9, "rand_plain_60"},  {12, "rand_plain_9"}, {12, "rand_plain_68"},
      {20, "rand_plain_26"}};
  for (const auto& [seed, name] : near_cutoff) {
    dnn::RandomDnnGenerator seeded(seed);
    for (int i = 0; i < 100; ++i) {
      dnn::Graph g = seeded.generate();
      if (g.name() != name) continue;
      graphs.push_back(std::move(g));
      break;
    }
    ASSERT_EQ(graphs.back().name(), name) << "seed " << seed;
  }

  std::size_t mismatches = 0;
  for (const dnn::Graph& g : graphs) {
    linalg::StandardScaler scaler;
    const Matrix x =
        scaler.fit_transform(features::DepthwiseFeatureExtractor::extract(g));
    const Matrix cov = linalg::covariance(x);
    const std::size_t rank = linalg::whitening_factor_spd(cov).rows();
    const std::size_t jacobi = testing::jacobi_rank(cov);
    EXPECT_LT(rank, cov.rows()) << g.name();
    if (rank != jacobi) {
      ++mismatches;
      ADD_FAILURE() << g.name() << ": factor keeps rank " << rank
                    << ", Jacobi keeps " << jacobi;
    }
    const Matrix fast = feature_distances(x);
    const Matrix naive = normalized(testing::mahalanobis_distances_naive(x));
    EXPECT_LT(Matrix::max_abs_diff(fast, naive), 1e-8) << g.name();
  }
  EXPECT_EQ(mismatches, 0u) << "of " << graphs.size() << " tables";
}

TEST(MahalanobisWhitened, ExactSymmetryAndZeroDiagonal) {
  // The diagonal is exactly zero, the lower triangle is bitwise the
  // full-matrix oracle's, and the emitted adjacency is exactly symmetric.
  const Matrix x = random_table(31, 7, 9);
  const DistanceParams p;
  linalg::Workspace ws;
  Matrix out;
  EpsAdjacency adj;
  power_distance_matrix_adj_into(x, p, 0.4, ws, out, adj);
  const Matrix want = testing::power_distance_oracle(x, p);
  for (std::size_t i = 0; i < out.rows(); ++i) EXPECT_EQ(out(i, i), 0.0);
  expect_lower_bitwise(out, want);
  std::vector<std::vector<bool>> linked(31, std::vector<bool>(31, false));
  for (std::size_t i = 0; i < adj.n; ++i) {
    for (std::size_t p2 = 0; p2 < adj.degree(i); ++p2) {
      linked[i][adj.row(i)[p2]] = true;
    }
  }
  for (std::size_t i = 0; i < 31; ++i) {
    EXPECT_TRUE(linked[i][i]);
    for (std::size_t j = 0; j < 31; ++j) EXPECT_EQ(linked[i][j], linked[j][i]);
  }
}

TEST(MahalanobisWhitened, AllConstantTableGivesZeroDistances) {
  // Zero covariance keeps no whitened directions (rank 0): the Gram kernels
  // run on an all-zero Gram and every feature distance is 0.
  Matrix x(6, 4);
  for (double& v : x.data()) v = 3.5;
  const Matrix d = feature_distances(x);
  for (const double v : d.data()) EXPECT_EQ(v, 0.0);
}

TEST(MahalanobisWhitened, WorkspaceVariantIsBitwiseIdentical) {
  const Matrix x = random_table(23, 8, 77);
  const Matrix plain = feature_distances(x);
  DistanceParams p;
  p.alpha = 1.0;
  linalg::Workspace ws;
  Matrix pooled;
  EpsAdjacency adj;
  power_distance_matrix_adj_into(x, p, 1.0, ws, pooled, adj);
  expect_lower_bitwise(pooled, plain);
  // Second pass reuses the warmed pool and must reproduce the result.
  const std::size_t created = ws.created();
  power_distance_matrix_adj_into(x, p, 1.0, ws, pooled, adj);
  expect_lower_bitwise(pooled, plain);
  EXPECT_EQ(ws.created(), created);
}

TEST(PowerDistance, WorkspaceVariantIsBitwiseIdentical) {
  const Matrix x = random_table(19, 6, 5);
  const DistanceParams p;
  const Matrix want = testing::power_distance_oracle(x, p);
  linalg::Workspace ws;
  Matrix pooled;
  EpsAdjacency adj;
  power_distance_matrix_adj_into(x, p, 0.3, ws, pooled, adj);
  expect_lower_bitwise(pooled, want);
  const std::size_t created = ws.created();
  power_distance_matrix_adj_into(x, p, 0.3, ws, pooled, adj);
  expect_lower_bitwise(pooled, want);
  EXPECT_EQ(ws.created(), created);
}

}  // namespace
}  // namespace powerlens::clustering
