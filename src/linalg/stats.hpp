// Feature-table statistics: covariance, mean, z-score scaling, and the
// whitening factor of a covariance.
//
// Algorithm 1 operates on "scaled power-sensitive deepwise features X"; the
// StandardScaler here performs that scaling, and covariance() with
// whitening_factor_spd() feeds the Mahalanobis metric.
#pragma once

#include "linalg/matrix.hpp"

#include <span>
#include <vector>

namespace powerlens::linalg {

// Per-column means of a samples x features matrix.
std::vector<double> column_means(const Matrix& samples);

// Unbiased (n-1) sample covariance of rows of `samples` (samples x features).
// With a single sample, returns the zero matrix. Throws on an empty matrix.
Matrix covariance(const Matrix& samples);
// Same, into a caller-owned (typically Workspace-pooled) matrix; `out` is
// reshaped and must not alias `samples`.
void covariance_into(const Matrix& samples, Matrix& out);

// Whitening factor W (r x d, r = rank kept) of a symmetric PSD matrix S:
// the pseudo-inverse of S in factored form, d² = diffᵀ pinv(S) diff =
// ‖W diff‖², which turns the Mahalanobis rewrite's O(n²·d²) all-pairs
// quadratic form into one whitening GEMM plus pairwise norms.
//
// Rank-revealing pivoted Cholesky, then the spectrum of its small Gram:
// each step pivots on the largest remaining Schur-complement diagonal (ties
// to the lowest coordinate) until what remains is rounding (at or below
// d·ε × the largest diagonal of S), leaving S = M Mᵀ with M = Pᵀ L of q
// columns. MᵀM is q x q and has the nonzero eigenvalues of S; a cyclic
// Jacobi on it decides the kept directions by the pseudo-inverse's spectral
// cutoff, eigenvalues above rcond × the largest, and W (one row per kept
// eigenvalue, descending) is pinv(S) on them. A diagonal stop rule alone
// would keep a near-null direction whose Schur diagonal sits above the
// cutoff while its eigenvalue sits below. Covariances of depthwise tables
// are never full rank (constant feature columns), so q is well below d and
// the Jacobi runs on the q x q Gram rather than on S. With nothing kept
// (e.g. a zero matrix), W is a 0 x d matrix. Plain scalar code, so every
// kernel dispatch path gets the same bits. Throws std::invalid_argument if
// `a` is not square or not symmetric (asymmetry beyond 1e-9 *
// max(frobenius_norm, 1)).
Matrix whitening_factor_spd(const Matrix& a, double rcond = 1e-10);

// Z-score feature scaler. fit() learns per-column mean/stddev; transform()
// maps each column to zero mean / unit variance. Constant columns (stddev
// below `kMinStddev`) are mapped to zero rather than dividing by ~0.
class StandardScaler {
 public:
  static constexpr double kMinStddev = 1e-12;

  // Learns scaling parameters from a samples x features matrix.
  // Throws std::invalid_argument on an empty matrix.
  void fit(const Matrix& samples);

  // Applies the learned scaling. Throws std::logic_error if fit() has not
  // been called, std::invalid_argument on a feature-count mismatch.
  Matrix transform(const Matrix& samples) const;
  // Same, into a caller-owned matrix (reshaped). Elementwise, so `out` may
  // alias `samples` for an in-place transform of an equal-shaped matrix.
  void transform_into(const Matrix& samples, Matrix& out) const;
  std::vector<double> transform_row(std::span<const double> row) const;

  Matrix fit_transform(const Matrix& samples);

  bool fitted() const noexcept { return !means_.empty(); }
  std::span<const double> means() const noexcept { return means_; }
  std::span<const double> stddevs() const noexcept { return stddevs_; }

  // .plbin encoding of the fitted parameters: u64 feature count, the
  // means, then the stddevs.
  void encode(io::Writer& w) const;
  static StandardScaler decode(io::Cursor& c);

 private:
  std::vector<double> means_;
  std::vector<double> stddevs_;
};

}  // namespace powerlens::linalg
