#include "clustering/cluster.hpp"

#include "features/depthwise.hpp"

#include <stdexcept>
#include <vector>

namespace powerlens::clustering {

PowerView build_power_view(const dnn::Graph& graph,
                           const ClusteringConfig& config,
                           linalg::Workspace* ws) {
  return build_power_view(features::DepthwiseFeatureExtractor::extract(graph),
                          config, ws);
}

PowerView build_power_view(const linalg::Matrix& depthwise_features,
                           const ClusteringConfig& config,
                           linalg::Workspace* ws) {
  linalg::Workspace local_ws;
  linalg::Workspace& w = ws != nullptr ? *ws : local_ws;
  linalg::Workspace::Lease dist = w.lease(0, 0);
  EpsAdjacency adj;
  power_distances_adj_into(depthwise_features, config.distance,
                           config.hyper.eps, w, *dist, adj);
  return build_power_view_from_adjacency(*dist, adj, config.hyper);
}

PowerView build_power_view_from_adjacency(const linalg::Matrix& distances,
                                          const EpsAdjacency& adj,
                                          const ClusteringHyperparams& hyper) {
  if (adj.n != distances.rows()) {
    throw std::invalid_argument(
        "build_power_view_from_adjacency: adjacency/matrix size mismatch");
  }
  const std::vector<int> labels = dbscan(adj, {hyper.eps, hyper.min_pts});
  return process_clusters(labels, distances,
                          {.min_block_layers = hyper.min_pts});
}

}  // namespace powerlens::clustering
