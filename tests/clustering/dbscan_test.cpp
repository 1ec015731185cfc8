#include "clustering/dbscan.hpp"

#include "support/distance_oracles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>

namespace powerlens::clustering {
namespace {

using linalg::Matrix;
using testing::dbscan_reference;

// dbscan on the full-scan adjacency of a dense matrix.
std::vector<int> dbscan(const Matrix& d, const DbscanParams& p) {
  return testing::dbscan_dense(d, p);
}
using clustering::dbscan;

// The widest adjacency of `d` (every entry <= the matrix max), packed the
// way the distance pipeline emits it.
EpsAdjacency widest_adjacency(const Matrix& d) {
  double mx = 0.0;
  for (const double v : d.data()) mx = std::max(mx, v);
  return testing::adjacency_oracle(d, mx + 1.0);
}

// Distance matrix for points on a line.
Matrix line_distances(const std::vector<double>& pts) {
  Matrix d(pts.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < pts.size(); ++j) {
      d(i, j) = std::abs(pts[i] - pts[j]);
    }
  }
  return d;
}

// Euclidean distance matrix of n random 2-D points, seeded for
// reproducibility. Mixes a few tight blobs with uniform scatter so
// clusters, borders, and noise all occur.
Matrix random_distances(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 4.0);
  std::normal_distribution<double> blob(0.0, 0.15);
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 != 0) {  // 2/3 of points in blobs at integer centers
      const double cx = static_cast<double>(1 + i % 4);
      xs[i] = cx + blob(rng);
      ys[i] = cx + blob(rng);
    } else {
      xs[i] = uni(rng);
      ys[i] = uni(rng);
    }
  }
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dd =
          std::hypot(xs[i] - xs[j], ys[i] - ys[j]);
      d(i, j) = dd;
      d(j, i) = dd;
    }
  }
  return d;
}

TEST(Dbscan, TwoWellSeparatedClusters) {
  const Matrix d = line_distances({0.0, 0.1, 0.2, 10.0, 10.1, 10.2});
  const std::vector<int> labels = dbscan(d, {0.5, 2});
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_EQ(labels[4], labels[5]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_NE(labels[0], kNoise);
}

TEST(Dbscan, IsolatedPointIsNoise) {
  const Matrix d = line_distances({0.0, 0.1, 0.2, 100.0});
  const std::vector<int> labels = dbscan(d, {0.5, 2});
  EXPECT_EQ(labels[3], kNoise);
}

TEST(Dbscan, ChainExpandsThroughCorePoints) {
  // Consecutive points 0.4 apart: each has neighbors within 0.5, the chain
  // connects into one cluster through density reachability.
  std::vector<double> pts;
  for (int i = 0; i < 10; ++i) pts.push_back(0.4 * i);
  const std::vector<int> labels = dbscan(line_distances(pts), {0.5, 2});
  for (int l : labels) EXPECT_EQ(l, labels[0]);
  EXPECT_NE(labels[0], kNoise);
}

TEST(Dbscan, MinPtsControlsCoreDefinition) {
  const Matrix d = line_distances({0.0, 0.1, 5.0, 5.1});
  // Pairs of two; with min_pts 2 (point + one neighbor) both pairs cluster.
  const std::vector<int> loose = dbscan(d, {0.5, 2});
  EXPECT_NE(loose[0], kNoise);
  // With min_pts 3 nobody is core.
  const std::vector<int> strict = dbscan(d, {0.5, 3});
  for (int l : strict) EXPECT_EQ(l, kNoise);
}

TEST(Dbscan, AllPointsOneClusterWithLargeEps) {
  const Matrix d = line_distances({0.0, 1.0, 2.0, 3.0});
  const std::vector<int> labels = dbscan(d, {100.0, 2});
  std::set<int> unique(labels.begin(), labels.end());
  EXPECT_EQ(unique.size(), 1u);
}

TEST(Dbscan, BorderPointJoinsCluster) {
  // Points 0, 0.4, 0.8: with eps 0.5 and min_pts 3, only the middle point is
  // core (3 neighbors incl. self); the ends are border points of its cluster.
  const Matrix d = line_distances({0.0, 0.4, 0.8});
  const std::vector<int> labels = dbscan(d, {0.5, 3});
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[1]);
  EXPECT_NE(labels[1], kNoise);
}

TEST(Dbscan, LabelsAreContiguousFromZero) {
  const Matrix d = line_distances({0.0, 0.1, 10.0, 10.1, 20.0, 20.1});
  const std::vector<int> labels = dbscan(d, {0.5, 2});
  std::set<int> unique(labels.begin(), labels.end());
  EXPECT_TRUE(unique.count(0));
  EXPECT_TRUE(unique.count(1));
  EXPECT_TRUE(unique.count(2));
}

TEST(Dbscan, RejectsBadArguments) {
  const EpsAdjacency adj =
      testing::adjacency_oracle(line_distances({0.0, 1.0}), 0.5);
  EXPECT_THROW(dbscan(adj, {0.0, 2}), std::invalid_argument);
  EXPECT_THROW(dbscan(adj, {0.5, 0}), std::invalid_argument);
  EpsAdjacency truncated = adj;
  truncated.offsets.pop_back();
  EXPECT_THROW(dbscan(truncated, {0.5, 2}), std::invalid_argument);
  EXPECT_THROW(dbscan(EpsAdjacency{}, {0.5, 2}), std::invalid_argument);
}

TEST(Dbscan, DeterministicLabels) {
  const Matrix d = line_distances({0.0, 0.2, 0.4, 5.0, 5.2, 9.0});
  const std::vector<int> a = dbscan(d, {0.5, 2});
  const std::vector<int> b = dbscan(d, {0.5, 2});
  EXPECT_EQ(a, b);
}

// --- CSR DBSCAN vs the dense reference implementation ---
//
// The production dbscan() expands over an ε-threshold CSR adjacency with a
// frontier that never re-enqueues labeled points. These tests pin its
// labels to dbscan_reference(), the classic dense-matrix implementation
// kept as the test oracle — field-exact equality, not just same clustering.

TEST(DbscanCsr, MatchesReferenceOnSeededRandomDatasets) {
  for (const std::uint64_t seed : {1u, 7u, 23u, 101u, 555u}) {
    const Matrix d = random_distances(60, seed);
    for (const double eps : {0.1, 0.35, 0.8, 2.0}) {
      for (const std::size_t min_pts : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}, std::size_t{8}}) {
        const DbscanParams p{eps, min_pts};
        EXPECT_EQ(dbscan(d, p), dbscan_reference(d, p))
            << "seed=" << seed << " eps=" << eps << " min_pts=" << min_pts;
      }
    }
  }
}

TEST(DbscanCsr, MatchesReferenceAllNoise) {
  const Matrix d = line_distances({0.0, 10.0, 20.0, 30.0, 40.0});
  const DbscanParams p{0.5, 2};
  const std::vector<int> labels = dbscan(d, p);
  EXPECT_EQ(labels, dbscan_reference(d, p));
  for (int l : labels) EXPECT_EQ(l, kNoise);
}

TEST(DbscanCsr, MatchesReferenceSingleCluster) {
  std::vector<double> pts;
  for (int i = 0; i < 20; ++i) pts.push_back(0.1 * i);
  const Matrix d = line_distances(pts);
  const DbscanParams p{0.5, 3};
  const std::vector<int> labels = dbscan(d, p);
  EXPECT_EQ(labels, dbscan_reference(d, p));
  for (int l : labels) EXPECT_EQ(l, 0);
}

TEST(DbscanCsr, MatchesReferenceDuplicatePoints) {
  // Coincident points (zero distance) stress the self-neighbor and
  // duplicate-enqueue handling.
  const Matrix d =
      line_distances({0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 9.0, 9.0});
  for (const double eps : {0.1, 1.0}) {
    for (const std::size_t min_pts :
         {std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
      const DbscanParams p{eps, min_pts};
      EXPECT_EQ(dbscan(d, p), dbscan_reference(d, p))
          << "eps=" << eps << " min_pts=" << min_pts;
    }
  }
}

TEST(DbscanCsr, MatchesReferenceBorderAttribution) {
  // A point within eps of two clusters' cores is claimed by whichever
  // cluster reaches it first — order-sensitive, so it pins expansion order.
  const Matrix d = line_distances({0.0, 0.4, 0.8, 1.2, 1.6, 2.0, 2.4});
  const DbscanParams p{0.45, 3};
  EXPECT_EQ(dbscan(d, p), dbscan_reference(d, p));
}

TEST(DbscanCsr, AdjacencyOverloadMatchesMatrixOverload) {
  // Narrowing the widest adjacency yields the same labels as scanning the
  // matrix at eps directly.
  const Matrix d = random_distances(40, 77);
  const DbscanParams p{0.5, 3};
  const EpsAdjacency adj = widest_adjacency(d).narrowed(d, p.eps);
  EXPECT_EQ(dbscan(adj, p), dbscan(d, p));
  EXPECT_EQ(dbscan(adj, p), dbscan_reference(d, p));
}

TEST(EpsAdjacency, RowsAreAscendingAndIncludeSelf) {
  const Matrix d = random_distances(33, 3);
  const EpsAdjacency adj = widest_adjacency(d).narrowed(d, 0.5);
  ASSERT_EQ(adj.n, 33u);
  for (std::size_t i = 0; i < adj.n; ++i) {
    const std::uint32_t* row = adj.row(i);
    bool self = false;
    for (std::size_t p = 0; p < adj.degree(i); ++p) {
      if (p > 0) {
        EXPECT_LT(row[p - 1], row[p]);
      }
      if (row[p] == i) self = true;
      EXPECT_LE(d(i, row[p]), 0.5);
    }
    EXPECT_TRUE(self) << "row " << i;
  }
}

TEST(EpsAdjacency, FromBitmapMatchesFromDistances) {
  const Matrix d = random_distances(70, 19);  // n > 64: multi-word rows
  const double eps = 0.6;
  const std::size_t n = d.rows();
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> bits(n * words, 0);
  std::vector<std::size_t> degree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (d(i, j) <= eps) {
        bits[i * words + j / 64] |= std::uint64_t{1} << (j % 64);
        ++degree[i];
      }
    }
  }
  const EpsAdjacency from_bits =
      EpsAdjacency::from_bitmap(n, bits.data(), words, degree.data());
  const EpsAdjacency from_dist = testing::adjacency_oracle(d, eps);
  EXPECT_EQ(from_bits.offsets, from_dist.offsets);
  EXPECT_EQ(from_bits.neighbors, from_dist.neighbors);
}

TEST(EpsAdjacency, RejectsBadArguments) {
  const Matrix d = line_distances({0.0, 1.0});
  const EpsAdjacency adj = widest_adjacency(d);
  EXPECT_THROW(adj.narrowed(d, 0.0), std::invalid_argument);
  EXPECT_THROW(adj.narrowed(Matrix(2, 3), 0.5), std::invalid_argument);
  EXPECT_THROW(adj.narrowed(Matrix(3, 3), 0.5), std::invalid_argument);
  EXPECT_THROW(dbscan(EpsAdjacency{}, {0.5, 2}), std::invalid_argument);
}

}  // namespace
}  // namespace powerlens::clustering
