#include "linalg/stats.hpp"

#include "io/binary.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

Matrix whitening_factor_spd(const Matrix& a, double rcond) {
  if (!a.square()) {
    throw std::invalid_argument("whitening_factor_spd: matrix must be square");
  }
  const std::size_t d = a.rows();
  const double symmetry_tol = 1e-9 * std::max(a.frobenius_norm(), 1.0);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i + 1; j < d; ++j) {
      if (std::abs(a(i, j) - a(j, i)) > symmetry_tol) {
        throw std::invalid_argument(
            "whitening_factor_spd: matrix not symmetric");
      }
    }
  }

  // Pivoted Cholesky, one column per step, run down to rounding: it stops
  // once the largest remaining Schur-complement diagonal is at or below
  // d·ε × the largest diagonal, so M Mᵀ = S up to rounding. Column k of `m`
  // is the k-th Cholesky column indexed by the original coordinate, so the
  // first r columns are M = Pᵀ L; `schur` is the diagonal of the remaining
  // Schur complement.
  Matrix m(d, d);
  std::vector<double> schur(d);
  double max_diag = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    schur[i] = a(i, i);
    max_diag = std::max(max_diag, schur[i]);
  }
  const double rounding = static_cast<double>(d) *
                          std::numeric_limits<double>::epsilon() * max_diag;
  std::vector<bool> pivoted(d, false);
  std::size_t r = 0;
  for (; r < d; ++r) {
    std::size_t p = d;
    for (std::size_t i = 0; i < d; ++i) {
      if (!pivoted[i] && (p == d || schur[i] > schur[p])) p = i;
    }
    if (!(schur[p] > rounding)) break;
    pivoted[p] = true;
    const double mpp = std::sqrt(schur[p]);
    m(p, r) = mpp;
    for (std::size_t i = 0; i < d; ++i) {
      if (pivoted[i]) continue;
      double v = a(i, p);
      for (std::size_t k = 0; k < r; ++k) v -= m(i, k) * m(p, k);
      v /= mpp;
      m(i, r) = v;
      schur[i] -= v * v;
    }
  }

  // The r x r Gram G = MᵀM has the nonzero eigenvalues of M Mᵀ = S. Cyclic
  // Jacobi turns it into Λ = Qᵀ G Q (`g` ends diagonal, `q` holds Q),
  // rotating a pair while its coupling is above 1e-15 of its diagonals'
  // geometric mean.
  std::vector<double> g(r * r);
  std::vector<double> q(r * r, 0.0);
  for (std::size_t i = 0; i < r; ++i) {
    q[i * r + i] = 1.0;
    for (std::size_t j = 0; j <= i; ++j) {
      double v = 0.0;
      for (std::size_t k = 0; k < d; ++k) v += m(k, i) * m(k, j);
      g[i * r + j] = v;
      g[j * r + i] = v;
    }
  }
  bool rotated = true;
  for (int sweep = 0; sweep < 100 && rotated; ++sweep) {
    rotated = false;
    for (std::size_t p = 0; p + 1 < r; ++p) {
      for (std::size_t s = p + 1; s < r; ++s) {
        const double gps = g[p * r + s];
        const double scale = std::sqrt(g[p * r + p] * g[s * r + s]);
        if (!(std::abs(gps) > 1e-15 * scale)) continue;
        rotated = true;
        const double theta = (g[s * r + s] - g[p * r + p]) / (2.0 * gps);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double sn = t * c;
        g[p * r + p] -= t * gps;
        g[s * r + s] += t * gps;
        g[p * r + s] = g[s * r + p] = 0.0;
        for (std::size_t k = 0; k < r; ++k) {
          if (k != p && k != s) {
            const double gkp = g[k * r + p];
            const double gks = g[k * r + s];
            g[k * r + p] = g[p * r + k] = c * gkp - sn * gks;
            g[k * r + s] = g[s * r + k] = sn * gkp + c * gks;
          }
          const double qkp = q[k * r + p];
          const double qks = q[k * r + s];
          q[k * r + p] = c * qkp - sn * qks;
          q[k * r + s] = sn * qkp + c * qks;
        }
      }
    }
  }

  // Keep the eigenvalues above rcond × the largest (descending, ties to the
  // lower index): the spectral cutoff of the pseudo-inverse. With M = U Σ Qᵀ
  // (Σ² = Λ), W = Λ_k⁻¹ Q_kᵀ Mᵀ = Λ_k^(-1/2) U_kᵀ, so WᵀW = U_k Λ_k⁻¹ U_kᵀ
  // is pinv(S) on the kept directions.
  std::vector<std::size_t> order(r);
  for (std::size_t k = 0; k < r; ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t i, std::size_t j) {
                     return g[i * r + i] > g[j * r + j];
                   });
  const double cutoff = r > 0 ? rcond * g[order[0] * r + order[0]] : 0.0;
  std::size_t kept = 0;
  while (kept < r && g[order[kept] * r + order[kept]] > cutoff) ++kept;
  Matrix w(kept, d);
  for (std::size_t k = 0; k < kept; ++k) {
    const std::size_t e = order[k];
    const double inv = 1.0 / g[e * r + e];
    for (std::size_t c = 0; c < d; ++c) {
      double v = 0.0;
      for (std::size_t j = 0; j < r; ++j) v += m(c, j) * q[j * r + e];
      w(k, c) = v * inv;
    }
  }
  return w;
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
