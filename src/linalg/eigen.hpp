// Symmetric eigendecomposition (cyclic Jacobi) and the whitening factor of
// a symmetric positive semi-definite matrix.
//
// Algorithm 1 of the paper computes the pseudo-inverse of a feature
// covariance matrix; covariance matrices are symmetric PSD, so a Jacobi
// eigendecomposition that keeps only the non-negligible eigenvalues is
// exact, simple, and robust to rank deficiency (common when few layers share
// a feature value). The planner uses the pseudo-inverse in factored form
// (whitening_factor_spd); the explicit pseudo-inverse is a test oracle
// (tests/support/distance_oracles.hpp).
#pragma once

#include "linalg/matrix.hpp"

#include <vector>

namespace powerlens::linalg {

struct EigenDecomposition {
  // Eigenvalues in descending order.
  std::vector<double> values;
  // Columns are the corresponding orthonormal eigenvectors.
  Matrix vectors;
};

// Decomposes a symmetric matrix A = V diag(values) V^T.
// Throws std::invalid_argument if `a` is not square or not symmetric
// (asymmetry beyond `symmetry_tol` * frobenius_norm).
EigenDecomposition eigen_symmetric(const Matrix& a, double symmetry_tol = 1e-9);

// Whitening factor W (k x n, k = rank kept) of a symmetric PSD matrix:
// rows are eigenvectors scaled by 1/sqrt(lambda), so Wᵀ W = pinv(a) exactly
// on the kept spectrum. This is the factored form of the pseudo-inverse the
// Mahalanobis rewrite uses: d² = diffᵀ pinv(a) diff = ‖W diff‖², which
// turns the O(n²·d²) all-pairs quadratic form into one whitening GEMM plus
// pairwise norms. Eigenvalues at or below rcond * max_eigenvalue — or
// non-positive ones, which a PSD input only produces through rounding — are
// dropped; with nothing kept, W is a 0 x n matrix.
Matrix whitening_factor_spd(const Matrix& a, double rcond = 1e-10);

}  // namespace powerlens::linalg
