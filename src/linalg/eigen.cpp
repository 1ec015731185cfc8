#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace powerlens::linalg {

namespace {

constexpr int kMaxSweeps = 100;

// Sum of squares of off-diagonal elements; Jacobi convergence measure.
double off_diagonal_norm(const Matrix& a) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (i != j) s += a(i, j) * a(i, j);
    }
  }
  return std::sqrt(s);
}

}  // namespace

EigenDecomposition eigen_symmetric(const Matrix& a, double symmetry_tol) {
  if (!a.square()) {
    throw std::invalid_argument("eigen_symmetric: matrix must be square");
  }
  const std::size_t n = a.rows();
  const double scale = std::max(a.frobenius_norm(), 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (std::abs(a(i, j) - a(j, i)) > symmetry_tol * scale) {
        throw std::invalid_argument("eigen_symmetric: matrix not symmetric");
      }
    }
  }
  Matrix d = a;  // working copy, driven to diagonal
  // Eigenvectors accumulate transposed (row r = eigenvector r): each Jacobi
  // rotation then rewrites two contiguous rows instead of two strided
  // columns, which vectorizes. Per-element arithmetic is unchanged and every
  // element update is independent, so results stay bitwise identical to the
  // column layout.
  Matrix vt = Matrix::identity(n);
  const double tol = 1e-13 * scale;
  const double rot_tol = tol / static_cast<double>(n * n + 1);
  double* const dd = d.data().data();
  double* const vv = vt.data().data();

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    if (off_diagonal_norm(d) <= tol) break;
    // One full cyclic sweep over the upper triangle.
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = dd[p * n + q];
        if (std::abs(apq) <= rot_tol) continue;
        const double app = dd[p * n + p];
        const double aqq = dd[q * n + q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // The chunked bodies below load a whole block before storing any of
        // it: the compiler cannot prove the p/q pointer pairs distinct, and
        // the explicit load/store separation removes the assumed-aliasing
        // stalls. Element updates are independent, so the chunking keeps
        // results bitwise identical to the plain loop.
        double* colp = dd + p;
        double* colq = dd + q;
        std::size_t k = 0;
        for (; k + 4 <= n; k += 4, colp += 4 * n, colq += 4 * n) {
          const double p0 = colp[0], p1 = colp[n];
          const double p2 = colp[2 * n], p3 = colp[3 * n];
          const double q0 = colq[0], q1 = colq[n];
          const double q2 = colq[2 * n], q3 = colq[3 * n];
          colp[0] = c * p0 - s * q0;
          colp[n] = c * p1 - s * q1;
          colp[2 * n] = c * p2 - s * q2;
          colp[3 * n] = c * p3 - s * q3;
          colq[0] = s * p0 + c * q0;
          colq[n] = s * p1 + c * q1;
          colq[2 * n] = s * p2 + c * q2;
          colq[3 * n] = s * p3 + c * q3;
        }
        for (; k < n; ++k, colp += n, colq += n) {
          const double dkp = *colp;
          const double dkq = *colq;
          *colp = c * dkp - s * dkq;
          *colq = s * dkp + c * dkq;
        }
        double* const rowp = dd + p * n;
        double* const rowq = dd + q * n;
        for (k = 0; k + 4 <= n; k += 4) {
          const double p0 = rowp[k], p1 = rowp[k + 1];
          const double p2 = rowp[k + 2], p3 = rowp[k + 3];
          const double q0 = rowq[k], q1 = rowq[k + 1];
          const double q2 = rowq[k + 2], q3 = rowq[k + 3];
          rowp[k] = c * p0 - s * q0;
          rowp[k + 1] = c * p1 - s * q1;
          rowp[k + 2] = c * p2 - s * q2;
          rowp[k + 3] = c * p3 - s * q3;
          rowq[k] = s * p0 + c * q0;
          rowq[k + 1] = s * p1 + c * q1;
          rowq[k + 2] = s * p2 + c * q2;
          rowq[k + 3] = s * p3 + c * q3;
        }
        for (; k < n; ++k) {
          const double dpk = rowp[k];
          const double dqk = rowq[k];
          rowp[k] = c * dpk - s * dqk;
          rowq[k] = s * dpk + c * dqk;
        }
        double* const vp = vv + p * n;
        double* const vq = vv + q * n;
        for (k = 0; k + 4 <= n; k += 4) {
          const double p0 = vp[k], p1 = vp[k + 1];
          const double p2 = vp[k + 2], p3 = vp[k + 3];
          const double q0 = vq[k], q1 = vq[k + 1];
          const double q2 = vq[k + 2], q3 = vq[k + 3];
          vp[k] = c * p0 - s * q0;
          vp[k + 1] = c * p1 - s * q1;
          vp[k + 2] = c * p2 - s * q2;
          vp[k + 3] = c * p3 - s * q3;
          vq[k] = s * p0 + c * q0;
          vq[k + 1] = s * p1 + c * q1;
          vq[k + 2] = s * p2 + c * q2;
          vq[k + 3] = s * p3 + c * q3;
        }
        for (; k < n; ++k) {
          const double vkp = vp[k];
          const double vkq = vq[k];
          vp[k] = c * vkp - s * vkq;
          vq[k] = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs by descending eigenvalue and pack the output layout.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return d(i, i) > d(j, j);
  });
  EigenDecomposition out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t c = 0; c < n; ++c) {
    out.values[c] = d(order[c], order[c]);
    for (std::size_t r = 0; r < n; ++r) {
      out.vectors(r, c) = vt(order[c], r);
    }
  }
  return out;
}

Matrix whitening_factor_spd(const Matrix& a, double rcond) {
  const EigenDecomposition ed = eigen_symmetric(a);
  const std::size_t n = ed.vectors.rows();
  double max_ev = 0.0;
  for (double ev : ed.values) max_ev = std::max(max_ev, std::abs(ev));
  const double cutoff = rcond * std::max(max_ev, 1e-300);

  std::size_t kept = 0;
  for (double ev : ed.values) {
    if (ev > cutoff) ++kept;
  }
  Matrix w(kept, n);
  std::size_t r = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (ed.values[k] <= cutoff) continue;
    const double scale = 1.0 / std::sqrt(ed.values[k]);
    for (std::size_t j = 0; j < n; ++j) {
      w(r, j) = scale * ed.vectors(j, k);
    }
    ++r;
  }
  return w;
}

}  // namespace powerlens::linalg
