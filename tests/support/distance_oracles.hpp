// Test oracles for the clustering pipeline (Algorithm 1). The library has
// exactly one distance pipeline — fused, lower-triangle, adjacency-emitting
// (src/clustering/distance.hpp) — and one CSR DBSCAN; these are the plain
// full-matrix formulations they are checked against:
//
//   - power_distance_oracle: the blended power distance as a FULL
//     symmetric matrix, computed with scalar loops in the exact operation
//     order the pipeline's contract fixes (fused multiply-add Gram chain,
//     mul-then-add distance and blend). Its lower triangle is bitwise the
//     pipeline's output.
//   - adjacency_oracle: the ε-neighborhoods by a full O(n²) matrix scan.
//   - dbscan_reference: the classic dense-matrix DBSCAN (O(n) neighbor
//     rescans, a frontier that re-enqueues labeled points).
//   - mahalanobis_distances_naive: the per-pair quadratic form
//     diffᵀ·pinv(cov)·diff — an independent factorization (a long double
//     Jacobi eigendecomposition of the full covariance,
//     support/eigen_oracle.hpp, where the pipeline diagonalizes the small
//     Gram of a pivoted Cholesky factor), equal to the whitened path only up
//     to the pipeline's rounding — with pseudo_inverse_spd, the explicit
//     Moore-Penrose pseudo-inverse it reads.
#pragma once

#include "clustering/dbscan.hpp"
#include "clustering/distance.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/stats.hpp"
#include "support/eigen_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <vector>

namespace powerlens::testing {

// Full symmetric matrix from a lower triangle (upper half ignored).
inline linalg::Matrix symmetric_from_lower(const linalg::Matrix& lower) {
  const std::size_t n = lower.rows();
  linalg::Matrix full(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      full(i, j) = lower(i, j);
      full(j, i) = lower(i, j);
    }
  }
  return full;
}

// Pairwise distances sqrt(max0(g(i,i) + g(j,j) - 2·g(i,j))) from a full
// symmetric Gram matrix, zero diagonal.
inline linalg::Matrix gram_distances_oracle(const linalg::Matrix& gram) {
  const std::size_t n = gram.rows();
  linalg::Matrix dist(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double t = (gram(i, i) + gram(j, j)) + -2.0 * gram(i, j);
      dist(i, j) = std::sqrt(t > 0.0 ? t : 0.0);
    }
  }
  return dist;
}

// Normalize-and-blend of a full feature-distance matrix:
//   alpha · (d(i,j) · inv_max) + (1 - alpha) · (1 - exp(-lambda |i - j|)).
inline linalg::Matrix blend_oracle(const linalg::Matrix& dist,
                                   const clustering::DistanceParams& params) {
  const std::size_t n = dist.rows();
  double max_d = 0.0;
  for (const double v : dist.data()) max_d = std::max(max_d, v);
  const double inv_max = max_d > 0.0 ? 1.0 / max_d : 1.0;
  const double alpha = params.alpha;
  const double beta = 1.0 - params.alpha;
  linalg::Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t off = i < j ? j - i : i - j;
      const double pen =
          off == 0 ? 0.0
                   : 1.0 - std::exp(-params.lambda * static_cast<double>(off));
      out(i, j) = alpha * (dist(i, j) * inv_max) + beta * pen;
    }
  }
  return out;
}

// Blended power distances of a scaled feature table as a full symmetric
// matrix. Mahalanobis: whitening factor W of cov(x), Y = X Wᵀ (the GEMM
// kernel), Gram entries as one ascending std::fma chain each (syrk_nt's
// contract). Euclidean: ascending sum of squared differences.
inline linalg::Matrix power_distance_oracle(
    const linalg::Matrix& x, const clustering::DistanceParams& params) {
  const std::size_t n = x.rows();
  linalg::Matrix dist(n, n);
  if (params.metric == clustering::FeatureMetric::kMahalanobis) {
    const linalg::Matrix w =
        linalg::whitening_factor_spd(linalg::covariance(x));
    const std::size_t k = w.rows();
    linalg::Matrix y(n, k);
    if (k > 0) y = linalg::kernels::matmul_nt(x, w);
    linalg::Matrix gram(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t p = 0; p < k; ++p) {
          acc = std::fma(y(i, p), y(j, p), acc);
        }
        gram(i, j) = acc;
      }
    }
    dist = gram_distances_oracle(gram);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        double acc = 0.0;
        for (std::size_t c = 0; c < x.cols(); ++c) {
          const double diff = x(i, c) - x(j, c);
          acc += diff * diff;
        }
        dist(i, j) = std::sqrt(acc);
      }
    }
  }
  return blend_oracle(dist, params);
}

// Same, from an unscaled depthwise table z-scored by its own scaler.
inline linalg::Matrix power_distances_oracle(
    const linalg::Matrix& depthwise, const clustering::DistanceParams& params) {
  linalg::StandardScaler scaler;
  scaler.fit(depthwise);
  return power_distance_oracle(scaler.transform(depthwise), params);
}

// ε-neighborhoods by a full scan of a square matrix: row i lists every j
// (ascending, self included when dist(i, i) <= eps) with dist(i, j) <= eps.
inline clustering::EpsAdjacency adjacency_oracle(const linalg::Matrix& dist,
                                                 double eps) {
  if (!dist.square() || dist.rows() == 0) {
    throw std::invalid_argument("adjacency_oracle: matrix must be square");
  }
  if (eps <= 0.0) throw std::invalid_argument("adjacency_oracle: eps <= 0");
  const std::size_t n = dist.rows();
  clustering::EpsAdjacency adj;
  adj.n = n;
  adj.offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (dist(i, j) <= eps) {
        adj.neighbors.push_back(static_cast<std::uint32_t>(j));
      }
    }
    adj.offsets[i + 1] = static_cast<std::uint32_t>(adj.neighbors.size());
  }
  return adj;
}

// The classic dense-matrix DBSCAN: O(n) neighbor rescans per expansion and
// a frontier that re-enqueues already-labeled points. The label oracle for
// clustering::dbscan on the adjacency of the same matrix.
inline std::vector<int> dbscan_reference(
    const linalg::Matrix& distances, const clustering::DbscanParams& params) {
  if (!distances.square() || distances.rows() == 0) {
    throw std::invalid_argument("dbscan: distance matrix must be square");
  }
  if (params.eps <= 0.0 || params.min_pts == 0) {
    throw std::invalid_argument("dbscan: eps must be > 0 and min_pts >= 1");
  }
  const std::size_t n = distances.rows();

  auto neighbors = [&](std::size_t i) {
    std::vector<std::size_t> out;
    for (std::size_t j = 0; j < n; ++j) {
      if (distances(i, j) <= params.eps) out.push_back(j);  // includes i
    }
    return out;
  };

  constexpr int kUnvisited = -2;
  std::vector<int> labels(n, kUnvisited);
  int next_cluster = 0;

  for (std::size_t i = 0; i < n; ++i) {
    if (labels[i] != kUnvisited) continue;
    std::vector<std::size_t> nbrs = neighbors(i);
    if (nbrs.size() < params.min_pts) {
      labels[i] = clustering::kNoise;
      continue;
    }
    const int cluster = next_cluster++;
    labels[i] = cluster;
    std::deque<std::size_t> frontier(nbrs.begin(), nbrs.end());
    while (!frontier.empty()) {
      const std::size_t q = frontier.front();
      frontier.pop_front();
      if (labels[q] == clustering::kNoise) labels[q] = cluster;  // border
      if (labels[q] != kUnvisited) continue;
      labels[q] = cluster;
      const std::vector<std::size_t> q_nbrs = neighbors(q);
      if (q_nbrs.size() >= params.min_pts) {
        frontier.insert(frontier.end(), q_nbrs.begin(), q_nbrs.end());
      }
    }
  }
  return labels;
}

// The production dbscan run on the full-scan adjacency of `distances`.
inline std::vector<int> dbscan_dense(const linalg::Matrix& distances,
                                     const clustering::DbscanParams& params) {
  return clustering::dbscan(adjacency_oracle(distances, params.eps), params);
}

// Moore-Penrose pseudo-inverse of a symmetric PSD matrix in long double,
// row-major: A⁺ = V diag(1/λ for the kept eigenvalues, else 0) Vᵀ, keeping
// eigenvalues whose magnitude is above rcond * max_eigenvalue.
inline std::vector<long double> pseudo_inverse_ld(const linalg::Matrix& a,
                                                  double rcond = 1e-10) {
  const JacobiEigen e = jacobi_eigen(a);
  const std::vector<bool> kept = kept_eigenvalues(e, rcond);
  const std::size_t n = e.n;
  std::vector<long double> out(n * n, 0.0L);
  for (std::size_t k = 0; k < n; ++k) {
    if (!kept[k]) continue;
    const long double inv = 1.0L / e.values[k];
    for (std::size_t i = 0; i < n; ++i) {
      const long double vik = e.vectors[i * n + k];
      if (vik == 0.0L) continue;
      for (std::size_t j = 0; j < n; ++j) {
        out[i * n + j] += inv * vik * e.vectors[j * n + k];
      }
    }
  }
  return out;
}

// The same pseudo-inverse, rounded to double.
inline linalg::Matrix pseudo_inverse_spd(const linalg::Matrix& a,
                                         double rcond = 1e-10) {
  const std::vector<long double> p = pseudo_inverse_ld(a, rcond);
  linalg::Matrix out(a.rows(), a.cols());
  std::transform(p.begin(), p.end(), out.data().begin(),
                 [](long double v) { return static_cast<double>(v); });
  return out;
}

// Reference O(n²·d²) Mahalanobis distances: the per-pair quadratic form
// diffᵀ·pinv(cov)·diff, with the pseudo-inverse and the form evaluated in
// long double from the double covariance the pipeline also factors.
inline linalg::Matrix mahalanobis_distances_naive(const linalg::Matrix& x) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  if (n == 0 || d == 0) {
    throw std::invalid_argument("mahalanobis_distances: empty feature table");
  }
  const std::vector<long double> p =
      pseudo_inverse_ld(linalg::covariance(x));

  linalg::Matrix dist(n, n);
  std::vector<long double> diff(d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      for (std::size_t k = 0; k < d; ++k) {
        diff[k] = static_cast<long double>(x(i, k)) - x(j, k);
      }
      long double acc = 0.0L;
      for (std::size_t r = 0; r < d; ++r) {
        if (diff[r] == 0.0L) continue;
        long double row = 0.0L;
        for (std::size_t c = 0; c < d; ++c) row += p[r * d + c] * diff[c];
        acc += diff[r] * row;
      }
      const double dd = static_cast<double>(std::sqrt(std::max(acc, 0.0L)));
      dist(i, j) = dd;
      dist(j, i) = dd;
    }
  }
  return dist;
}

}  // namespace powerlens::testing
