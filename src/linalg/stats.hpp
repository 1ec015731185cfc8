// Feature-table statistics: covariance, mean, and z-score scaling.
//
// Algorithm 1 operates on "scaled power-sensitive deepwise features X"; the
// StandardScaler here performs that scaling, and covariance() feeds the
// Mahalanobis metric.
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
