// Two-stage MLP: the prediction-model architecture of Figures 3 and 4.
//
// Both the clustering-hyperparameter prediction model and the target-
// frequency decision model share this topology: structural features enter at
// the beginning to "establish a basic understanding of the DNN structure";
// statistics features are injected mid-network "to further enhance the
// prediction accuracy based on the existing structural understanding". The
// head is a classifier (hyperparameter-grid index, or frequency level).
//
// Training is plain backprop with Adam; everything is implemented from
// scratch on the linalg substrate.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"

#include <cstdint>
#include <random>
#include <vector>

namespace powerlens::nn {

// Fully connected layer with optional ReLU and built-in Adam state.
class DenseLayer {
 public:
  DenseLayer(std::size_t in_dim, std::size_t out_dim, bool relu,
             std::mt19937_64& rng);

  // Forward over a (batch x in_dim) matrix; caches activations for backward.
  linalg::Matrix forward(const linalg::Matrix& x);
  // Inference-only forward; no caches touched.
  linalg::Matrix forward_const(const linalg::Matrix& x) const;
  // Same, into a caller-owned (typically Workspace-pooled) matrix. The
  // affine product and the ReLU are fused into one kernel pass.
  void forward_const_into(const linalg::Matrix& x, linalg::Matrix& out) const;

  // Backward from (batch x out_dim) gradient; accumulates weight grads and
  // returns the gradient w.r.t. the input.
  linalg::Matrix backward(const linalg::Matrix& grad_out);

  // One Adam update using the accumulated gradients, then clears them.
  void adam_step(double lr, double beta1, double beta2, double eps,
                 std::int64_t t);

  // Data-parallel training support: replicas copy the master's parameters,
  // accumulate shard gradients independently, and the master sums them back
  // in a fixed order before its Adam step.
  void copy_weights_from(const DenseLayer& src);     // w, b only
  void add_gradients_from(const DenseLayer& src);    // grad_w, grad_b +=
  void zero_gradients();

  std::size_t in_dim() const noexcept { return w_.cols(); }
  std::size_t out_dim() const noexcept { return w_.rows(); }
  const linalg::Matrix& weights() const noexcept { return w_; }

  // .plbin encoding: u8 ReLU flag, then w, b, m_w, v_w, m_b, v_b (the Adam
  // moments). decode throws io::MalformedError on a zero dimension or when
  // a bias or moment shape disagrees with w.
  void encode(io::Writer& w) const;
  static DenseLayer decode(io::Cursor& c);

 private:
  friend class TwoStageMlp;  // default-constructs its layers for decode()
  DenseLayer() = default;    // for decode()
  // out = x·wᵀ + b via the fused kernel, optionally with the ReLU epilogue.
  void affine_into(const linalg::Matrix& x, linalg::Matrix& out,
                   bool relu) const;

  linalg::Matrix w_;          // out x in
  std::vector<double> b_;     // out
  bool relu_ = false;

  linalg::Matrix grad_w_;
  std::vector<double> grad_b_;
  linalg::Matrix m_w_, v_w_;  // Adam moments
  std::vector<double> m_b_, v_b_;

  linalg::Matrix last_x_;
  linalg::Matrix last_pre_;   // pre-activation, needed for the ReLU mask
};

struct TwoStageMlpConfig {
  std::size_t structural_dim = 0;
  std::size_t statistics_dim = 0;
  std::size_t hidden1 = 64;
  std::size_t hidden2 = 64;
  std::size_t hidden3 = 64;
  std::size_t num_classes = 0;
  std::uint64_t seed = 1;
};

class TwoStageMlp {
 public:
  explicit TwoStageMlp(const TwoStageMlpConfig& config);

  // Logits for a batch: `structural` is (batch x structural_dim),
  // `statistics` is (batch x statistics_dim).
  linalg::Matrix forward(const linalg::Matrix& structural,
                         const linalg::Matrix& statistics);
  linalg::Matrix forward_const(const linalg::Matrix& structural,
                               const linalg::Matrix& statistics) const;
  // Allocation-free inference: every intermediate activation is leased from
  // `ws` and the logits land in `logits` (reshaped). After the workspace has
  // warmed up on a batch shape, repeated calls do no heap traffic.
  void forward_const_into(const linalg::Matrix& structural,
                          const linalg::Matrix& statistics,
                          linalg::Workspace& ws, linalg::Matrix& logits) const;

  // Backward from d(loss)/d(logits); input gradients are discarded.
  void backward(const linalg::Matrix& grad_logits);

  void adam_step(double lr, double beta1, double beta2, double eps);

  // Data-parallel training support (see DenseLayer). Topologies must match;
  // throws std::invalid_argument otherwise.
  void sync_weights_from(const TwoStageMlp& master);
  void add_gradients_from(const TwoStageMlp& replica);
  void zero_gradients();

  // Predicted class per row.
  std::vector<int> predict(const linalg::Matrix& structural,
                           const linalg::Matrix& statistics) const;
  // Single-sample class prediction on the workspace path (serving hot loop):
  // both inputs are 1-row matrices; returns the argmax of the logits row.
  int predict_one(const linalg::Matrix& structural,
                  const linalg::Matrix& statistics,
                  linalg::Workspace& ws) const;

  const TwoStageMlpConfig& config() const noexcept { return config_; }

  // .plbin encoding of the full model: u64 structural_dim, statistics_dim,
  // hidden1-3 and num_classes, i64 Adam step, then the four layers. decode
  // throws io::MalformedError when the layers do not chain into that
  // topology; it allocates only what the layers' own counts bound.
  void encode(io::Writer& w) const;
  static TwoStageMlp decode(io::Cursor& c);

 private:
  TwoStageMlp() = default;  // for decode()

  TwoStageMlpConfig config_;
  std::mt19937_64 rng_;  // must precede the layers: they draw init weights
  DenseLayer stage1_a_;  // structural -> hidden1
  DenseLayer stage1_b_;  // hidden1 -> hidden2
  DenseLayer stage2_a_;  // hidden2 + statistics -> hidden3
  DenseLayer head_;      // hidden3 -> classes
  std::int64_t adam_t_ = 0;
};

}  // namespace powerlens::nn
