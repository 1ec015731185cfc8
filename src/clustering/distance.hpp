// Power-behavior distance computation (Algorithm 1, lines 2-12).
//
// The "power distance" between two operators combines:
//   - the Mahalanobis distance between their scaled depthwise feature
//     vectors, using the pseudo-inverse of the feature covariance (scale-free
//     across heterogeneous feature dimensions), and
//   - an operator-spacing regularization exp(-lambda * |i - j|) that keeps
//     physically distant operators from clustering merely because their
//     features look alike.
//
// NOTE on the regularization sign: Algorithm 1 writes
//   D_final = alpha * D + (1 - alpha) * R,  R = exp(-lambda |i-j|),
// but R as written *shrinks* the distance between far-apart operators,
// the opposite of the stated intent ("only physically adjacent operators
// are considered"). We therefore use the spacing *penalty*
//   R' = 1 - exp(-lambda |i-j|),
// which is zero for an operator and itself, grows with |i-j|, and matches
// the paper's described behaviour. DESIGN.md records this correction.
//
// One pipeline, one output contract. Every entry point below produces
//   - `dist`: the blended power distance
//       dist(i, j) = alpha · (d(i, j) / max d) + (1 - alpha) · R'(|i - j|)
//     as a LOWER triangle plus a zero diagonal. The upper triangle is
//     unspecified; blended values are symmetric, so consumers index
//     (max(i, j), min(i, j)).
//   - `adj`: the ε-threshold CSR adjacency of the full symmetric matrix at
//     the requested eps, emitted in the same sweep that writes `dist`.
// Hyperparameter sweeps build once at their largest eps and derive each
// smaller eps with EpsAdjacency::narrowed (dbscan.hpp), an O(nnz) filter
// over the widest adjacency instead of an O(n²) rescan.
//
// Cost model (Mahalanobis): the pseudo-inverse factors as P = Wᵀ W
// (linalg::whitening_factor_spd); one GEMM whitens the table (Y = X Wᵀ),
// syrk_nt writes the lower Gram triangle of Y, and every pairwise distance
// reads ‖yᵢ‖² + ‖yⱼ‖² − 2·(Y Yᵀ)ᵢⱼ inside the fused kernels
// (kernels::gram_dist_max, kernels::gram_blend_adj). A rank-0 covariance
// (every row identical under P) runs the same kernels on an all-zero Gram.
// The Euclidean ablation metric writes its lower triangle and ε-bitmap in
// plain scalar code with the kernels' mul-then-add order.
#pragma once

#include "clustering/dbscan.hpp"
#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"

namespace powerlens::clustering {

enum class FeatureMetric {
  kMahalanobis,  // the paper's choice
  kEuclidean,    // ablation comparator
};

struct DistanceParams {
  double alpha = 0.7;    // weight of the feature distance vs spacing penalty
  double lambda = 0.15;  // spacing decay rate
  FeatureMetric metric = FeatureMetric::kMahalanobis;
};

// Power distances of an already-scaled feature table (row i == layer i):
// `out` gets the blended lower triangle, `adj` its ε-adjacency. The
// raw-feature ablation calls this directly on unscaled tables. Throws
// std::invalid_argument on an empty table, alpha outside [0, 1],
// lambda < 0, or eps <= 0.
void power_distance_matrix_adj_into(const linalg::Matrix& scaled_features,
                                    const DistanceParams& params, double eps,
                                    linalg::Workspace& ws, linalg::Matrix& out,
                                    EpsAdjacency& adj);

// Same, from an UNSCALED depthwise feature table: z-scores it with its own
// fitted linalg::StandardScaler first (Algorithm 1 line 2).
void power_distances_adj_into(const linalg::Matrix& depthwise_features,
                              const DistanceParams& params, double eps,
                              linalg::Workspace& ws, linalg::Matrix& dist,
                              EpsAdjacency& adj);

}  // namespace powerlens::clustering
