// Test oracle: symmetric eigendecomposition by the plain cyclic Jacobi
// method, in long double. The library factors covariances with a pivoted
// Cholesky and a Jacobi on its small Gram (linalg::whitening_factor_spd);
// this independent factorization of the full matrix backs the explicit
// pseudo-inverse and the naive Mahalanobis oracle
// (support/distance_oracles.hpp), and the rank it keeps is the reference for
// the factor's rank. Long double keeps the reference far more accurate than
// the double-precision pipeline it checks on ill-conditioned covariances
// (smallest kept eigenvalue near 1e-9 of the largest).
#pragma once

#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace powerlens::testing {

// Eigenpairs of an n x n symmetric matrix, row-major in long double.
struct JacobiEigen {
  std::size_t n = 0;
  std::vector<long double> values;   // descending
  std::vector<long double> vectors;  // row-major n x n; column c is vector c
};

// Cyclic Jacobi on a symmetric matrix (row-major, n x n). Sweeps until the
// off-diagonal norm falls to 1e-13 × max(‖A‖_F, 1), scaled by long double's
// epsilon relative to double's, or after 100 sweeps. Throws
// std::invalid_argument if `a` is not square or not symmetric (asymmetry
// beyond 1e-9 × max(‖A‖_F, 1)).
inline JacobiEigen jacobi_eigen(const linalg::Matrix& a) {
  using T = long double;
  if (!a.square()) {
    throw std::invalid_argument("jacobi_eigen: matrix must be square");
  }
  const std::size_t n = a.rows();
  const T scale = std::max(T(a.frobenius_norm()), T(1));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (std::abs(T(a(i, j)) - T(a(j, i))) > T(1e-9) * scale) {
        throw std::invalid_argument("jacobi_eigen: matrix not symmetric");
      }
    }
  }
  std::vector<T> d(a.data().begin(), a.data().end());  // driven to diagonal
  std::vector<T> v(n * n, T(0));
  for (std::size_t i = 0; i < n; ++i) v[i * n + i] = T(1);
  const T tol = T(1e-13) * scale *
                (std::numeric_limits<T>::epsilon() /
                 T(std::numeric_limits<double>::epsilon()));
  const T rot_tol = tol / static_cast<T>(n * n + 1);
  const auto off_diagonal_norm = [&] {
    T s = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) s += d[i * n + j] * d[i * n + j];
      }
    }
    return std::sqrt(s);
  };

  for (int sweep = 0; sweep < 100 && off_diagonal_norm() > tol; ++sweep) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const T apq = d[p * n + q];
        if (std::abs(apq) <= rot_tol) continue;
        const T theta = (d[q * n + q] - d[p * n + p]) / (2 * apq);
        const T t = (theta >= 0 ? T(1) : T(-1)) /
                    (std::abs(theta) + std::sqrt(theta * theta + 1));
        const T c = 1 / std::sqrt(t * t + 1);
        const T s = t * c;
        // D ← Jᵀ D J, V ← V J for the rotation J in the (p, q) plane.
        for (std::size_t k = 0; k < n; ++k) {
          const T dkp = d[k * n + p];
          const T dkq = d[k * n + q];
          d[k * n + p] = c * dkp - s * dkq;
          d[k * n + q] = s * dkp + c * dkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const T dpk = d[p * n + k];
          const T dqk = d[q * n + k];
          d[p * n + k] = c * dpk - s * dqk;
          d[q * n + k] = s * dpk + c * dqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const T vkp = v[k * n + p];
          const T vkq = v[k * n + q];
          v[k * n + p] = c * vkp - s * vkq;
          v[k * n + q] = s * vkp + c * vkq;
        }
      }
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return d[i * n + i] > d[j * n + j];
  });
  JacobiEigen out;
  out.n = n;
  out.values.resize(n);
  out.vectors.resize(n * n);
  for (std::size_t c = 0; c < n; ++c) {
    out.values[c] = d[order[c] * n + order[c]];
    for (std::size_t r = 0; r < n; ++r) {
      out.vectors[r * n + c] = v[r * n + order[c]];
    }
  }
  return out;
}

// Eigenvalues strictly above rcond × the largest |eigenvalue|: the
// directions the pseudo-inverse keeps.
inline std::vector<bool> kept_eigenvalues(const JacobiEigen& e,
                                          double rcond) {
  long double max_ev = 0;
  for (const long double ev : e.values) {
    max_ev = std::max(max_ev, std::abs(ev));
  }
  const long double cutoff = rcond * std::max(max_ev, 1e-300L);
  std::vector<bool> kept(e.n);
  for (std::size_t k = 0; k < e.n; ++k) {
    kept[k] = std::abs(e.values[k]) > cutoff;
  }
  return kept;
}

// The rank the Jacobi pseudo-inverse keeps (eigenvalues above rcond × the
// largest): the reference rank of linalg::whitening_factor_spd.
inline std::size_t jacobi_rank(const linalg::Matrix& a, double rcond = 1e-10) {
  const std::vector<bool> kept = kept_eigenvalues(jacobi_eigen(a), rcond);
  return static_cast<std::size_t>(std::count(kept.begin(), kept.end(), true));
}

}  // namespace powerlens::testing
