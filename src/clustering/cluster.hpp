// End-to-end power behavior similarity clustering (Algorithm 1).
//
// Chains: z-score scaling of the depthwise feature table -> regularized
// Mahalanobis power distances + ε-adjacency (clustering/distance.hpp) ->
// DBSCAN -> contiguity post-processing -> PowerView.
#pragma once

#include "clustering/dbscan.hpp"
#include "clustering/distance.hpp"
#include "clustering/postprocess.hpp"
#include "clustering/power_view.hpp"
#include "dnn/graph.hpp"
#include "linalg/workspace.hpp"

namespace powerlens::clustering {

// The hyperparameters the clustering-hyperparameter prediction model chooses
// per network (paper Figure 3): DBSCAN's neighborhood radius and minimum
// operator count.
struct ClusteringHyperparams {
  double eps = 0.2;
  std::size_t min_pts = 3;

  bool operator==(const ClusteringHyperparams&) const noexcept = default;
};

struct ClusteringConfig {
  ClusteringHyperparams hyper;
  DistanceParams distance;  // alpha, lambda, metric
};

// Runs Algorithm 1 on a graph: extracts + scales depthwise features, builds
// the power distances and their ε-adjacency, clusters, and post-processes
// into a PowerView. When `ws` is non-null, all matrix temporaries are drawn
// from it — the serving hot path passes its per-worker Workspace so
// repeated calls do no heap traffic after warmup.
PowerView build_power_view(const dnn::Graph& graph,
                           const ClusteringConfig& config,
                           linalg::Workspace* ws = nullptr);

// Variant taking a pre-extracted *unscaled* depthwise feature table (row i ==
// layer i).
PowerView build_power_view(const linalg::Matrix& depthwise_features,
                           const ClusteringConfig& config,
                           linalg::Workspace* ws = nullptr);

// DBSCAN + post-processing on precomputed power distances: `distances`
// follows distance.hpp's lower-triangle contract and `adj` is its
// ε-adjacency at hyper.eps — straight from power_distances_adj_into, or
// narrowed from a wider sweep (EpsAdjacency::narrowed).
PowerView build_power_view_from_adjacency(const linalg::Matrix& distances,
                                          const EpsAdjacency& adj,
                                          const ClusteringHyperparams& hyper);

}  // namespace powerlens::clustering
