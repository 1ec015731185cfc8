#include "linalg/stats.hpp"

#include "io/binary.hpp"

#include <cmath>
#include <stdexcept>

namespace powerlens::linalg {

std::vector<double> column_means(const Matrix& samples) {
  if (samples.rows() == 0 || samples.cols() == 0) {
    throw std::invalid_argument("column_means: empty matrix");
  }
  std::vector<double> means(samples.cols(), 0.0);
  for (std::size_t r = 0; r < samples.rows(); ++r) {
    for (std::size_t c = 0; c < samples.cols(); ++c) {
      means[c] += samples(r, c);
    }
  }
  for (double& m : means) m /= static_cast<double>(samples.rows());
  return means;
}

Matrix covariance(const Matrix& samples) {
  Matrix cov;
  covariance_into(samples, cov);
  return cov;
}

void covariance_into(const Matrix& samples, Matrix& cov) {
  const std::size_t n = samples.rows();
  const std::size_t d = samples.cols();
  if (n == 0 || d == 0) {
    throw std::invalid_argument("covariance: empty matrix");
  }
  cov.reshape(d, d);
  if (n < 2) return;

  const std::vector<double> mu = column_means(samples);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < d; ++i) {
      const double xi = samples(r, i) - mu[i];
      if (xi == 0.0) continue;
      for (std::size_t j = i; j < d; ++j) {
        cov(i, j) += xi * (samples(r, j) - mu[j]);
      }
    }
  }
  const double denom = static_cast<double>(n - 1);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i; j < d; ++j) {
      cov(i, j) /= denom;
      cov(j, i) = cov(i, j);
    }
  }
}

void StandardScaler::fit(const Matrix& samples) {
  means_ = column_means(samples);
  stddevs_.assign(samples.cols(), 0.0);
  if (samples.rows() < 2) {
    // A single sample has no spread; keep stddevs at zero so transform()
    // maps every column to zero.
    return;
  }
  for (std::size_t r = 0; r < samples.rows(); ++r) {
    for (std::size_t c = 0; c < samples.cols(); ++c) {
      const double d = samples(r, c) - means_[c];
      stddevs_[c] += d * d;
    }
  }
  for (double& s : stddevs_) {
    s = std::sqrt(s / static_cast<double>(samples.rows() - 1));
  }
}

Matrix StandardScaler::transform(const Matrix& samples) const {
  Matrix out;
  transform_into(samples, out);
  return out;
}

void StandardScaler::transform_into(const Matrix& samples, Matrix& out) const {
  if (!fitted()) throw std::logic_error("StandardScaler: transform before fit");
  if (samples.cols() != means_.size()) {
    throw std::invalid_argument("StandardScaler: feature-count mismatch");
  }
  const std::size_t rows = samples.rows();
  const std::size_t cols = samples.cols();
  if (&out != &samples) out.reshape(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      out(r, c) = stddevs_[c] > kMinStddev
                      ? (samples(r, c) - means_[c]) / stddevs_[c]
                      : 0.0;
    }
  }
}

std::vector<double> StandardScaler::transform_row(
    std::span<const double> row) const {
  if (!fitted()) throw std::logic_error("StandardScaler: transform before fit");
  if (row.size() != means_.size()) {
    throw std::invalid_argument("StandardScaler: feature-count mismatch");
  }
  std::vector<double> out(row.size());
  for (std::size_t c = 0; c < row.size(); ++c) {
    out[c] = stddevs_[c] > kMinStddev ? (row[c] - means_[c]) / stddevs_[c]
                                      : 0.0;
  }
  return out;
}

Matrix StandardScaler::fit_transform(const Matrix& samples) {
  fit(samples);
  return transform(samples);
}

void StandardScaler::encode(io::Writer& w) const {
  w.u64(means_.size());
  for (double m : means_) w.f64(m);
  for (double s : stddevs_) w.f64(s);
}

StandardScaler StandardScaler::decode(io::Cursor& c) {
  StandardScaler s;
  // Two doubles per feature: the count is bounded before either array grows.
  s.means_.resize(c.count(2 * sizeof(double)));
  s.stddevs_.resize(s.means_.size());
  for (double& v : s.means_) v = c.f64();
  for (double& v : s.stddevs_) v = c.f64();
  return s;
}

}  // namespace powerlens::linalg
