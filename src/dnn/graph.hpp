// DNN computation graph.
//
// Layers are stored in execution (topological) order; the clustering stage of
// Algorithm 1 treats this order as the operator axis (the |i - j| spacing
// regularization). Edges record producers so the global feature extractor can
// count residual joins and branch points (section 2.1.2, macro structural
// features).
//
// A Graph is immutable after construction, so it computes its structural
// signature once, in its constructor: FNV-1a 64-bit over the name, every
// layer's type, name, shapes, cost and deep attributes, and every edge.
// Only integral fields and bytes are folded (never doubles or pointers), so
// rebuilding the same zoo model at the same batch size reproduces the value
// across processes and platforms, and a copy carries its source's value.
// The serving layer keys plans by it (serve/signature.hpp): the optimizer is
// a pure function of the graph for a trained framework, so equal signatures
// imply equal plans.
#pragma once

#include "dnn/layer.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace powerlens::dnn {

using NodeId = std::size_t;

class Graph {
 public:
  Graph() = default;
  Graph(std::string name, std::vector<Layer> layers,
        std::vector<std::vector<NodeId>> producers);

  const std::string& name() const noexcept { return name_; }
  // The signature computed at construction (see the file comment).
  std::uint64_t signature() const noexcept { return signature_; }
  // What Graph{} holds: the hash of an empty name and zero layers
  // (static_assert-ed against the hash in graph.cpp).
  static constexpr std::uint64_t kEmptySignature = 0xa31e272015f12c43ULL;
  std::size_t size() const noexcept { return layers_.size(); }
  bool empty() const noexcept { return layers_.empty(); }

  const Layer& layer(NodeId id) const { return layers_.at(id); }
  std::span<const Layer> layers() const noexcept { return layers_; }

  // Producer node ids feeding layer `id`, in argument order.
  std::span<const NodeId> producers(NodeId id) const {
    return producers_.at(id);
  }
  // Consumer node ids reading layer `id`'s output.
  std::span<const NodeId> consumers(NodeId id) const {
    return consumers_.at(id);
  }

  // --- Aggregates used by the global feature extractor and tests ---

  std::int64_t total_flops() const noexcept;
  std::int64_t total_params() const noexcept;
  std::int64_t total_mem_bytes() const noexcept;

  // Number of kAdd joins (residual connections).
  std::size_t residual_count() const noexcept;
  // Number of kConcat joins (branching merge points).
  std::size_t concat_count() const noexcept;
  // Number of nodes whose output feeds more than one consumer.
  std::size_t branch_count() const noexcept;
  // Longest producer->consumer path length (network depth).
  std::size_t depth() const;
  // Count of layers of a given type.
  std::size_t count_of(OpType t) const noexcept;

  // The batch size of the graph's input layer (0 if the graph is empty).
  std::int64_t batch_size() const noexcept;

  // Largest per-layer flops/params/mem_bytes validate() accepts: 2^53, the
  // range where every integer converts to double exactly.
  static constexpr std::int64_t kMaxLayerCost = std::int64_t{1} << 53;

  // Validates the topological invariant (every producer id < consumer id),
  // shape consistency along edges, that exactly the first layer is kInput,
  // and that every layer cost lies in [0, kMaxLayerCost] with int64 totals
  // (so total_flops/total_params/total_mem_bytes cannot overflow). Throws
  // std::invalid_argument describing the first violation.
  void validate() const;

  // Field-exact equality (name, every layer, every edge); consumers and the
  // signature are derived from those, so comparing them too costs nothing
  // extra and keeps this defaultable. The interchange round-trip tests assert
  // load(save(g)) == g through this.
  bool operator==(const Graph&) const = default;

 private:
  std::string name_;
  std::vector<Layer> layers_;
  std::vector<std::vector<NodeId>> producers_;
  std::vector<std::vector<NodeId>> consumers_;
  std::uint64_t signature_ = kEmptySignature;
};

// Recomputes the FNV-1a signature from the graph's fields, as its
// constructor did; signature() returns the stored value. For tests that
// check the stored value and benches that time what a hash costs.
std::uint64_t hash_graph(const Graph& graph);

}  // namespace powerlens::dnn
