#include "clustering/distance.hpp"

#include "linalg/kernels.hpp"
#include "linalg/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace powerlens::clustering {

namespace {

void check_params(const DistanceParams& params, double eps) {
  if (params.alpha < 0.0 || params.alpha > 1.0) {
    throw std::invalid_argument("power_distance: alpha outside [0,1]");
  }
  if (params.lambda < 0.0) {
    throw std::invalid_argument("power_distance: lambda must be >= 0");
  }
  if (eps <= 0.0) {
    throw std::invalid_argument("power_distance: eps must be > 0");
  }
}

void check_table(const linalg::Matrix& x) {
  if (x.rows() == 0 || x.cols() == 0) {
    throw std::invalid_argument("power_distance: empty feature table");
  }
}

// Per-offset spacing-penalty table: penalty[t] = 1 - exp(-lambda * t),
// penalty[0] = 0.
void fill_penalty(double lambda, std::size_t n, linalg::Matrix& penalty) {
  penalty(0, 0) = 0.0;
  for (std::size_t t = 1; t < n; ++t) {
    penalty(0, t) = 1.0 - std::exp(-lambda * static_cast<double>(t));
  }
}

// The Mahalanobis tail from a whitening factor `w` of cov(x): whitened
// projection, lower-triangle Gram, max prepass, then ONE blended-lower +
// ε-bitmap sweep. A rank-0 factor (zero covariance) leaves the Gram all
// zero, so every feature distance is 0 through the same kernels.
void mahalanobis_lower_into(const linalg::Matrix& x, const linalg::Matrix& w,
                            const DistanceParams& params, double eps,
                            linalg::Workspace& ws, linalg::Matrix& out,
                            EpsAdjacency& adj) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const std::size_t k = w.rows();

  // P = Wᵀ W; d²(i,j) = ‖W(xᵢ − xⱼ)‖² = ‖yᵢ − yⱼ‖² with Y = X Wᵀ. The mean
  // never needs subtracting — it cancels in the row differences.
  linalg::Workspace::Lease gram =
      k == 0 ? ws.lease(n, n) : ws.lease_uninit(n, n);
  if (k > 0) {
    linalg::Workspace::Lease y = ws.lease_uninit(n, k);
    linalg::kernels::gemm_nt(n, k, d, x.data().data(), d, w.data().data(), d,
                             y->data().data(), k);
    linalg::Workspace::Lease at = ws.lease_uninit(k, n);  // syrk Aᵀ scratch
    linalg::kernels::syrk_nt(n, k, y->data().data(), k, at->data().data(),
                             gram->data().data(), n);
  }
  linalg::Workspace::Lease norms = ws.lease_uninit(1, n);
  double max_d = 0.0;
  linalg::kernels::gram_dist_max(n, gram->data().data(), n,
                                 norms->data().data(), &max_d);
  const double inv_max = max_d > 0.0 ? 1.0 / max_d : 1.0;

  linalg::Workspace::Lease penalty = ws.lease_uninit(1, n);
  fill_penalty(params.lambda, n, *penalty);
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> bits(n * words);
  std::vector<std::size_t> degree(n);
  out.reshape_no_fill(n, n);  // lower triangle fully overwritten below
  linalg::kernels::gram_blend_adj(
      n, gram->data().data(), n, norms->data().data(), params.alpha, inv_max,
      1.0 - params.alpha, penalty->data().data(), out.data().data(), n, eps,
      bits.data(), words, degree.data());
  adj = EpsAdjacency::from_bitmap(n, bits.data(), words, degree.data());
}

// The Euclidean ablation metric in plain scalar code, under the same
// contract: raw distances into the lower triangle (folding their max),
// then the blend alpha · (v · inv_max) + beta · penalty[i - j] in place,
// stamping the symmetric ε-bitmap as each entry is blended. -ffp-contract
// =off keeps every multiply-then-add unfused, exactly as the kernels do.
void euclidean_lower_into(const linalg::Matrix& x,
                          const DistanceParams& params, double eps,
                          linalg::Workspace& ws, linalg::Matrix& out,
                          EpsAdjacency& adj) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  out.reshape_no_fill(n, n);
  double max_d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < d; ++c) {
        const double diff = x(i, c) - x(j, c);
        acc += diff * diff;
      }
      out(i, j) = std::sqrt(acc);
      max_d = std::max(max_d, out(i, j));
    }
  }
  const double inv_max = max_d > 0.0 ? 1.0 / max_d : 1.0;
  const double alpha = params.alpha;
  const double beta = 1.0 - params.alpha;

  linalg::Workspace::Lease penalty = ws.lease_uninit(1, n);
  fill_penalty(params.lambda, n, *penalty);
  const double* pen = penalty->data().data();
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> bits(n * words);
  const auto set_bit = [&](std::size_t row, std::size_t col) {
    bits[row * words + col / 64] |= std::uint64_t{1} << (col % 64);
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double v = alpha * (out(i, j) * inv_max) + beta * pen[i - j];
      out(i, j) = v;
      if (v <= eps) {
        set_bit(i, j);
        set_bit(j, i);
      }
    }
    out(i, i) = 0.0;
    set_bit(i, i);
  }
  std::vector<std::size_t> degree(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t w = 0; w < words; ++w) {
      degree[i] +=
          static_cast<std::size_t>(std::popcount(bits[i * words + w]));
    }
  }
  adj = EpsAdjacency::from_bitmap(n, bits.data(), words, degree.data());
}

}  // namespace

void power_distance_matrix_adj_into(const linalg::Matrix& scaled_features,
                                    const DistanceParams& params, double eps,
                                    linalg::Workspace& ws, linalg::Matrix& out,
                                    EpsAdjacency& adj) {
  check_params(params, eps);
  check_table(scaled_features);
  if (params.metric != FeatureMetric::kMahalanobis) {
    euclidean_lower_into(scaled_features, params, eps, ws, out, adj);
    return;
  }
  const std::size_t d = scaled_features.cols();
  linalg::Workspace::Lease cov = ws.lease(d, d);
  linalg::covariance_into(scaled_features, *cov);
  const linalg::Matrix w = linalg::whitening_factor_spd(*cov);
  mahalanobis_lower_into(scaled_features, w, params, eps, ws, out, adj);
}

void power_distances_adj_into(const linalg::Matrix& depthwise_features,
                              const DistanceParams& params, double eps,
                              linalg::Workspace& ws, linalg::Matrix& dist,
                              EpsAdjacency& adj) {
  linalg::StandardScaler scaler;
  scaler.fit(depthwise_features);
  linalg::Workspace::Lease scaled =
      ws.lease(depthwise_features.rows(), depthwise_features.cols());
  scaler.transform_into(depthwise_features, *scaled);
  power_distance_matrix_adj_into(*scaled, params, eps, ws, dist, adj);
}

}  // namespace powerlens::clustering
