// DBSCAN over an ε-threshold CSR adjacency (Algorithm 1, line 13).
//
// The adjacency comes out of the distance pipeline's own sweep (see
// clustering/distance.hpp), so neighbor queries are O(degree) row lookups
// and no distance matrix is ever rescanned. Expansion order is the textbook
// one — seeds ascend, the frontier is FIFO over first insertions, and CSR
// rows list neighbors in ascending index — so labels equal the classic
// dense-matrix implementation, which the tests keep as their label oracle
// (tests/support/distance_oracles.hpp).
#pragma once

#include "linalg/matrix.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace powerlens::clustering {

inline constexpr int kNoise = -1;

struct DbscanParams {
  double eps = 0.2;          // neighborhood radius in the power-distance space
  std::size_t min_pts = 3;   // least number of operators per cluster
};

// ε-threshold adjacency in CSR form: row i lists every j (self included,
// ascending) with dist(i, j) <= eps. Built once per clustering; DBSCAN's
// neighbor queries become O(degree) row lookups instead of O(n) matrix
// rescans.
struct EpsAdjacency {
  std::size_t n = 0;
  std::vector<std::uint32_t> offsets;    // n + 1 row starts
  std::vector<std::uint32_t> neighbors;  // ascending within each row

  std::size_t degree(std::size_t i) const noexcept {
    return offsets[i + 1] - offsets[i];
  }
  const std::uint32_t* row(std::size_t i) const noexcept {
    return neighbors.data() + offsets[i];
  }

  // Assembly from the packed per-row bitmaps the fused distance sweep
  // emits (kernels::gram_blend_adj): bits[i*words + w] bit b set means j =
  // 64*w + b is a neighbor of i. Scanning words ascending yields ascending
  // neighbor order for free.
  static EpsAdjacency from_bitmap(std::size_t n, const std::uint64_t* bits,
                                  std::size_t words,
                                  const std::size_t* degree);

  // The adjacency at a smaller radius: keeps neighbor j of row i when
  // dist(max(i, j), min(i, j)) <= eps, in ascending order — an O(nnz)
  // filter over this (wider) adjacency. `dist` is the lower-triangle power
  // distance matrix this adjacency was built from; the result equals a
  // full-matrix scan at `eps` whenever eps does not exceed the radius this
  // adjacency was built at. Throws std::invalid_argument on a size
  // mismatch or eps <= 0.
  EpsAdjacency narrowed(const linalg::Matrix& dist, double eps) const;
};

// Returns one label per adjacency row: 0..k-1 for cluster membership,
// kNoise for noise points. The adjacency already encodes eps, so only
// min_pts is read from `params` (eps must still be > 0). Throws
// std::invalid_argument on a malformed adjacency, eps <= 0 or min_pts == 0.
std::vector<int> dbscan(const EpsAdjacency& adjacency,
                        const DbscanParams& params);

}  // namespace powerlens::clustering
