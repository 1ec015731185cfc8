#include "dnn/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

namespace powerlens::dnn {

namespace {

// FNV-1a 64-bit, folded byte by byte; integers fold little-endian.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

constexpr std::uint64_t fnv1a_byte(std::uint64_t h, unsigned char b) noexcept {
  return (h ^ b) * kFnvPrime;
}

constexpr std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h = fnv1a_byte(h, static_cast<unsigned char>(v >> (8 * i)));
  }
  return h;
}

std::uint64_t fold_bytes(std::uint64_t h, std::string_view s) {
  h = fnv1a_u64(h, s.size());
  for (const char c : s) h = fnv1a_byte(h, static_cast<unsigned char>(c));
  return h;
}

std::uint64_t fold_i64(std::uint64_t h, std::int64_t v) {
  return fnv1a_u64(h, static_cast<std::uint64_t>(v));
}

std::uint64_t fold_shape(std::uint64_t h, const TensorShape& s) {
  h = fold_i64(h, s.n);
  h = fold_i64(h, s.c);
  h = fold_i64(h, s.h);
  return fold_i64(h, s.w);
}

// An empty graph folds a zero name length and a zero layer count.
static_assert(fnv1a_u64(fnv1a_u64(kFnvOffset, 0), 0) ==
              Graph::kEmptySignature);

}  // namespace

Graph::Graph(std::string name, std::vector<Layer> layers,
             std::vector<std::vector<NodeId>> producers)
    : name_(std::move(name)),
      layers_(std::move(layers)),
      producers_(std::move(producers)) {
  if (layers_.size() != producers_.size()) {
    throw std::invalid_argument("Graph: layers/producers size mismatch");
  }
  consumers_.resize(layers_.size());
  for (NodeId id = 0; id < layers_.size(); ++id) {
    for (NodeId p : producers_[id]) {
      if (p >= layers_.size()) {
        throw std::invalid_argument("Graph: producer id out of range");
      }
      consumers_[p].push_back(id);
    }
  }
  signature_ = hash_graph(*this);
}

std::uint64_t hash_graph(const Graph& graph) {
  std::uint64_t h = kFnvOffset;
  h = fold_bytes(h, graph.name());
  h = fnv1a_u64(h, graph.size());
  for (NodeId i = 0; i < graph.size(); ++i) {
    const Layer& layer = graph.layer(i);
    h = fnv1a_u64(h, static_cast<std::uint64_t>(layer.type));
    h = fold_bytes(h, layer.name);
    h = fold_shape(h, layer.input);
    h = fold_shape(h, layer.output);
    h = fold_i64(h, layer.flops);
    h = fold_i64(h, layer.params);
    h = fold_i64(h, layer.mem_bytes);
    h = fold_i64(h, layer.conv.kernel_h);
    h = fold_i64(h, layer.conv.kernel_w);
    h = fold_i64(h, layer.conv.stride);
    h = fold_i64(h, layer.conv.padding);
    h = fold_i64(h, layer.conv.groups);
    h = fold_i64(h, layer.conv.filters);
    h = fold_i64(h, layer.attn.heads);
    h = fold_i64(h, layer.attn.embed_dim);
    h = fold_i64(h, layer.attn.head_dim);
    h = fold_i64(h, layer.attn.seq_len);
    const auto producers = graph.producers(i);
    h = fnv1a_u64(h, producers.size());
    for (const NodeId p : producers) h = fnv1a_u64(h, p);
  }
  return h;
}

std::int64_t Graph::total_flops() const noexcept {
  std::int64_t s = 0;
  for (const Layer& l : layers_) s += l.flops;
  return s;
}

std::int64_t Graph::total_params() const noexcept {
  std::int64_t s = 0;
  for (const Layer& l : layers_) s += l.params;
  return s;
}

std::int64_t Graph::total_mem_bytes() const noexcept {
  std::int64_t s = 0;
  for (const Layer& l : layers_) s += l.mem_bytes;
  return s;
}

std::size_t Graph::residual_count() const noexcept {
  return count_of(OpType::kAdd);
}

std::size_t Graph::concat_count() const noexcept {
  return count_of(OpType::kConcat);
}

std::size_t Graph::branch_count() const noexcept {
  std::size_t n = 0;
  for (const auto& cons : consumers_) {
    if (cons.size() > 1) ++n;
  }
  return n;
}

std::size_t Graph::depth() const {
  // Layers are topologically ordered, so one forward pass suffices.
  std::vector<std::size_t> dist(layers_.size(), 0);
  std::size_t best = 0;
  for (NodeId id = 0; id < layers_.size(); ++id) {
    for (NodeId p : producers_[id]) {
      dist[id] = std::max(dist[id], dist[p] + 1);
    }
    best = std::max(best, dist[id]);
  }
  return best;
}

std::size_t Graph::count_of(OpType t) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(layers_.begin(), layers_.end(),
                    [t](const Layer& l) { return l.type == t; }));
}

std::int64_t Graph::batch_size() const noexcept {
  return layers_.empty() ? 0 : layers_.front().output.n;
}

void Graph::validate() const {
  if (layers_.empty()) throw std::invalid_argument("Graph: empty");
  std::int64_t flops = 0;
  std::int64_t params = 0;
  std::int64_t mem_bytes = 0;
  if (layers_.front().type != OpType::kInput) {
    throw std::invalid_argument("Graph: first layer must be kInput");
  }
  for (NodeId id = 0; id < layers_.size(); ++id) {
    const Layer& l = layers_[id];
    if (id > 0 && l.type == OpType::kInput) {
      throw std::invalid_argument("Graph: kInput layer not at position 0 in '" +
                                  name_ + "'");
    }
    if (id > 0 && producers_[id].empty()) {
      throw std::invalid_argument("Graph: non-input layer '" + l.name +
                                  "' has no producers");
    }
    for (NodeId p : producers_[id]) {
      if (p >= id) {
        throw std::invalid_argument(
            "Graph: producer does not precede consumer at layer '" + l.name +
            "'");
      }
    }
    if (!l.output.valid()) {
      throw std::invalid_argument("Graph: invalid output shape at layer '" +
                                  l.name + "'");
    }
    if (!producers_[id].empty()) {
      const Layer& first_prod = layers_[producers_[id].front()];
      if (first_prod.output != l.input) {
        throw std::invalid_argument(
            "Graph: input shape of layer '" + l.name +
            "' does not match its first producer's output");
      }
    }
    if (l.flops < 0 || l.params < 0 || l.mem_bytes < 0) {
      throw std::invalid_argument("Graph: negative cost at layer '" + l.name +
                                  "'");
    }
    if (l.flops > kMaxLayerCost || l.params > kMaxLayerCost ||
        l.mem_bytes > kMaxLayerCost) {
      throw std::invalid_argument("Graph: cost above 2^53 at layer '" +
                                  l.name + "'");
    }
    // The total_* aggregates must stay representable.
    if (__builtin_add_overflow(flops, l.flops, &flops) ||
        __builtin_add_overflow(params, l.params, &params) ||
        __builtin_add_overflow(mem_bytes, l.mem_bytes, &mem_bytes)) {
      throw std::invalid_argument("Graph: total cost overflows int64 at '" +
                                  l.name + "'");
    }
  }
}

}  // namespace powerlens::dnn
