// The PlanCache key: a DNN graph's structural signature.
//
// dnn::Graph computes it once, in its constructor (see dnn/graph.hpp for
// what it folds and why it is stable across rebuilds, processes and
// platforms); this accessor returns the stored value, so keying a request
// costs no hash. The optimizer is a pure function of the graph for a
// trained framework, so equal signatures imply equal optimization plans.
#pragma once

#include "dnn/graph.hpp"

#include <cstdint>

namespace powerlens::serve {

// Signature of a whole graph (name, every layer, every edge).
inline std::uint64_t graph_signature(const dnn::Graph& graph) noexcept {
  return graph.signature();
}

}  // namespace powerlens::serve
