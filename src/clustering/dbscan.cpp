#include "clustering/dbscan.hpp"

#include <bit>
#include <deque>
#include <stdexcept>

namespace powerlens::clustering {

namespace {

void check_params(const DbscanParams& params) {
  if (params.eps <= 0.0 || params.min_pts == 0) {
    throw std::invalid_argument("dbscan: eps must be > 0 and min_pts >= 1");
  }
}

}  // namespace

EpsAdjacency EpsAdjacency::from_bitmap(std::size_t n,
                                       const std::uint64_t* bits,
                                       std::size_t words,
                                       const std::size_t* degree) {
  EpsAdjacency adj;
  adj.n = n;
  adj.offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    adj.offsets[i + 1] =
        adj.offsets[i] + static_cast<std::uint32_t>(degree[i]);
  }
  adj.neighbors.resize(adj.offsets[n]);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t* out = adj.neighbors.data() + adj.offsets[i];
    const std::uint64_t* row = bits + i * words;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t word = row[w];
      while (word != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(word));
        *out++ = static_cast<std::uint32_t>(64 * w + b);
        word &= word - 1;
      }
    }
  }
  return adj;
}

EpsAdjacency EpsAdjacency::narrowed(const linalg::Matrix& dist,
                                    double eps) const {
  if (dist.rows() != n || dist.cols() != n) {
    throw std::invalid_argument("EpsAdjacency::narrowed: size mismatch");
  }
  if (eps <= 0.0) {
    throw std::invalid_argument("EpsAdjacency::narrowed: eps must be > 0");
  }
  EpsAdjacency out;
  out.n = n;
  out.offsets.assign(n + 1, 0);
  out.neighbors.reserve(neighbors.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t* r = row(i);
    for (std::size_t p = 0; p < degree(i); ++p) {
      const std::size_t j = r[p];
      if ((j < i ? dist(i, j) : dist(j, i)) <= eps) {
        out.neighbors.push_back(r[p]);
      }
    }
    out.offsets[i + 1] = static_cast<std::uint32_t>(out.neighbors.size());
  }
  return out;
}

std::vector<int> dbscan(const EpsAdjacency& adj, const DbscanParams& params) {
  check_params(params);
  if (adj.n == 0 || adj.offsets.size() != adj.n + 1) {
    throw std::invalid_argument("dbscan: malformed adjacency");
  }
  const std::size_t n = adj.n;

  constexpr int kUnvisited = -2;
  std::vector<int> labels(n, kUnvisited);
  // Enqueue stamp keyed by cluster id + 1 so it never needs clearing
  // between clusters: a point enters the current cluster's frontier at
  // most once. Together with skipping already-cluster-labeled neighbors
  // this removes the reference implementation's duplicate re-enqueues;
  // the pops that remain are exactly the reference's first-occurrence
  // (effective) pops in the same order — later duplicates were no-ops
  // there — so expansion order, border attribution, and every label are
  // unchanged (see the equivalence regression test).
  std::vector<int> enqueued(n, 0);
  std::deque<std::uint32_t> frontier;
  int next_cluster = 0;

  const auto push_unclaimed = [&](const std::uint32_t* row, std::size_t deg,
                                  int stamp) {
    for (std::size_t p = 0; p < deg; ++p) {
      const std::uint32_t q = row[p];
      if (labels[q] >= 0 || enqueued[q] == stamp) continue;
      enqueued[q] = stamp;
      frontier.push_back(q);
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (labels[i] != kUnvisited) continue;
    if (adj.degree(i) < params.min_pts) {
      labels[i] = kNoise;
      continue;
    }
    const int cluster = next_cluster++;
    const int stamp = cluster + 1;
    labels[i] = cluster;
    push_unclaimed(adj.row(i), adj.degree(i), stamp);
    while (!frontier.empty()) {
      const std::uint32_t q = frontier.front();
      frontier.pop_front();
      if (labels[q] == kNoise) {
        labels[q] = cluster;  // border point: claimed, never expanded
        continue;
      }
      if (labels[q] != kUnvisited) continue;
      labels[q] = cluster;
      if (adj.degree(q) >= params.min_pts) {
        push_unclaimed(adj.row(q), adj.degree(q), stamp);
      }
    }
  }
  return labels;
}

}  // namespace powerlens::clustering
