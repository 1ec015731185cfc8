#include "nn/mlp.hpp"

#include "io/binary.hpp"
#include "linalg/kernels.hpp"
#include "nn/tensor.hpp"

#include <cmath>
#include <stdexcept>

namespace powerlens::nn {

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim, bool relu,
                       std::mt19937_64& rng)
    : w_(out_dim, in_dim),
      b_(out_dim, 0.0),
      relu_(relu),
      grad_w_(out_dim, in_dim),
      grad_b_(out_dim, 0.0),
      m_w_(out_dim, in_dim),
      v_w_(out_dim, in_dim),
      m_b_(out_dim, 0.0),
      v_b_(out_dim, 0.0) {
  if (in_dim == 0 || out_dim == 0) {
    throw std::invalid_argument("DenseLayer: zero dimension");
  }
  // He initialization, right for the ReLU stages and harmless for the head.
  std::normal_distribution<double> dist(
      0.0, std::sqrt(2.0 / static_cast<double>(in_dim)));
  for (double& v : w_.data()) v = dist(rng);
}

void DenseLayer::affine_into(const linalg::Matrix& x, linalg::Matrix& out,
                             bool relu) const {
  if (x.cols() != w_.cols()) {
    throw std::invalid_argument("DenseLayer: input dimension mismatch");
  }
  out.reshape(x.rows(), w_.rows());
  linalg::kernels::affine(x.rows(), w_.rows(), w_.cols(), x.data().data(),
                          x.cols(), w_.data().data(), w_.cols(), b_.data(),
                          out.data().data(), out.cols(), relu);
}

linalg::Matrix DenseLayer::forward(const linalg::Matrix& x) {
  last_x_ = x;
  affine_into(x, last_pre_, false);
  if (!relu_) return last_pre_;
  linalg::Matrix out = last_pre_;
  for (double& v : out.data()) v = v > 0.0 ? v : 0.0;
  return out;
}

linalg::Matrix DenseLayer::forward_const(const linalg::Matrix& x) const {
  linalg::Matrix out;
  affine_into(x, out, relu_);
  return out;
}

void DenseLayer::forward_const_into(const linalg::Matrix& x,
                                    linalg::Matrix& out) const {
  affine_into(x, out, relu_);
}

linalg::Matrix DenseLayer::backward(const linalg::Matrix& grad_out) {
  if (grad_out.rows() != last_x_.rows() || grad_out.cols() != w_.rows()) {
    throw std::invalid_argument("DenseLayer::backward: shape mismatch");
  }
  linalg::Matrix g = grad_out;
  if (relu_) {
    for (std::size_t r = 0; r < g.rows(); ++r) {
      for (std::size_t c = 0; c < g.cols(); ++c) {
        if (last_pre_(r, c) <= 0.0) g(r, c) = 0.0;
      }
    }
  }
  // grad_w += gᵀ x ; grad_b += column sums of g ; grad_in = g w. The kernels
  // walk the batch/output dimension in the same ascending order as the old
  // per-element loops; the one intentional change is dropping the old
  // `go == 0.0` skip branches, which silently turned ±0 and signed-zero
  // products into "no-op adds" (adding 0.0 never changes a finite sum, but
  // the branch cost a mispredict per ReLU-masked element).
  linalg::kernels::matmul_tn_into(g, last_x_, grad_w_, /*accumulate=*/true);
  linalg::kernels::col_sums(g.rows(), g.cols(), g.data().data(), g.cols(),
                            grad_b_.data(), /*accumulate=*/true);
  return linalg::kernels::matmul(g, w_);
}

void DenseLayer::adam_step(double lr, double beta1, double beta2, double eps,
                           std::int64_t t) {
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
  auto update = [&](double& param, double& m, double& v, double g) {
    m = beta1 * m + (1.0 - beta1) * g;
    v = beta2 * v + (1.0 - beta2) * g * g;
    param -= lr * (m / bc1) / (std::sqrt(v / bc2) + eps);
  };
  auto wd = w_.data();
  auto gw = grad_w_.data();
  auto mw = m_w_.data();
  auto vw = v_w_.data();
  for (std::size_t i = 0; i < wd.size(); ++i) {
    update(wd[i], mw[i], vw[i], gw[i]);
    gw[i] = 0.0;
  }
  for (std::size_t i = 0; i < b_.size(); ++i) {
    update(b_[i], m_b_[i], v_b_[i], grad_b_[i]);
    grad_b_[i] = 0.0;
  }
}

void DenseLayer::copy_weights_from(const DenseLayer& src) {
  if (src.w_.rows() != w_.rows() || src.w_.cols() != w_.cols()) {
    throw std::invalid_argument("DenseLayer::copy_weights_from: shape");
  }
  w_ = src.w_;
  b_ = src.b_;
}

void DenseLayer::add_gradients_from(const DenseLayer& src) {
  if (src.grad_w_.rows() != grad_w_.rows() ||
      src.grad_w_.cols() != grad_w_.cols()) {
    throw std::invalid_argument("DenseLayer::add_gradients_from: shape");
  }
  grad_w_ += src.grad_w_;
  for (std::size_t i = 0; i < grad_b_.size(); ++i) {
    grad_b_[i] += src.grad_b_[i];
  }
}

void DenseLayer::zero_gradients() {
  for (double& v : grad_w_.data()) v = 0.0;
  for (double& v : grad_b_) v = 0.0;
}

TwoStageMlp::TwoStageMlp(const TwoStageMlpConfig& config)
    : config_(config),
      rng_([&] {
        if (config.structural_dim == 0 || config.statistics_dim == 0 ||
            config.num_classes == 0) {
          throw std::invalid_argument("TwoStageMlp: zero dimension");
        }
        return config.seed;
      }()),
      stage1_a_(config.structural_dim, config.hidden1, true, rng_),
      stage1_b_(config.hidden1, config.hidden2, true, rng_),
      stage2_a_(config.hidden2 + config.statistics_dim, config.hidden3, true,
                rng_),
      head_(config.hidden3, config.num_classes, false, rng_) {}

linalg::Matrix TwoStageMlp::forward(const linalg::Matrix& structural,
                                    const linalg::Matrix& statistics) {
  const linalg::Matrix h1 = stage1_a_.forward(structural);
  const linalg::Matrix h2 = stage1_b_.forward(h1);
  const linalg::Matrix mid = hconcat(h2, statistics);
  const linalg::Matrix h3 = stage2_a_.forward(mid);
  return head_.forward(h3);
}

linalg::Matrix TwoStageMlp::forward_const(
    const linalg::Matrix& structural, const linalg::Matrix& statistics) const {
  const linalg::Matrix h1 = stage1_a_.forward_const(structural);
  const linalg::Matrix h2 = stage1_b_.forward_const(h1);
  const linalg::Matrix mid = hconcat(h2, statistics);
  const linalg::Matrix h3 = stage2_a_.forward_const(mid);
  return head_.forward_const(h3);
}

void TwoStageMlp::forward_const_into(const linalg::Matrix& structural,
                                     const linalg::Matrix& statistics,
                                     linalg::Workspace& ws,
                                     linalg::Matrix& logits) const {
  const std::size_t batch = structural.rows();
  linalg::Workspace::Lease h1 = ws.lease(batch, config_.hidden1);
  stage1_a_.forward_const_into(structural, *h1);
  linalg::Workspace::Lease h2 = ws.lease(batch, config_.hidden2);
  stage1_b_.forward_const_into(*h1, *h2);
  linalg::Workspace::Lease mid =
      ws.lease(batch, config_.hidden2 + config_.statistics_dim);
  hconcat_into(*h2, statistics, *mid);
  linalg::Workspace::Lease h3 = ws.lease(batch, config_.hidden3);
  stage2_a_.forward_const_into(*mid, *h3);
  head_.forward_const_into(*h3, logits);
}

void TwoStageMlp::backward(const linalg::Matrix& grad_logits) {
  const linalg::Matrix g3 = head_.backward(grad_logits);
  const linalg::Matrix g_mid = stage2_a_.backward(g3);
  // Split the mid gradient: first hidden2 columns flow back to stage 1; the
  // statistics columns are raw inputs with no upstream parameters.
  linalg::Matrix g2(g_mid.rows(), config_.hidden2);
  for (std::size_t r = 0; r < g_mid.rows(); ++r) {
    for (std::size_t c = 0; c < config_.hidden2; ++c) g2(r, c) = g_mid(r, c);
  }
  const linalg::Matrix g1 = stage1_b_.backward(g2);
  stage1_a_.backward(g1);
}

void TwoStageMlp::adam_step(double lr, double beta1, double beta2,
                            double eps) {
  ++adam_t_;
  stage1_a_.adam_step(lr, beta1, beta2, eps, adam_t_);
  stage1_b_.adam_step(lr, beta1, beta2, eps, adam_t_);
  stage2_a_.adam_step(lr, beta1, beta2, eps, adam_t_);
  head_.adam_step(lr, beta1, beta2, eps, adam_t_);
}

void TwoStageMlp::sync_weights_from(const TwoStageMlp& master) {
  stage1_a_.copy_weights_from(master.stage1_a_);
  stage1_b_.copy_weights_from(master.stage1_b_);
  stage2_a_.copy_weights_from(master.stage2_a_);
  head_.copy_weights_from(master.head_);
}

void TwoStageMlp::add_gradients_from(const TwoStageMlp& replica) {
  stage1_a_.add_gradients_from(replica.stage1_a_);
  stage1_b_.add_gradients_from(replica.stage1_b_);
  stage2_a_.add_gradients_from(replica.stage2_a_);
  head_.add_gradients_from(replica.head_);
}

void TwoStageMlp::zero_gradients() {
  stage1_a_.zero_gradients();
  stage1_b_.zero_gradients();
  stage2_a_.zero_gradients();
  head_.zero_gradients();
}

std::vector<int> TwoStageMlp::predict(const linalg::Matrix& structural,
                                      const linalg::Matrix& statistics) const {
  return argmax_rows(forward_const(structural, statistics));
}

int TwoStageMlp::predict_one(const linalg::Matrix& structural,
                             const linalg::Matrix& statistics,
                             linalg::Workspace& ws) const {
  linalg::Workspace::Lease logits = ws.lease(1, config_.num_classes);
  forward_const_into(structural, statistics, ws, *logits);
  std::size_t best = 0;
  for (std::size_t c = 1; c < logits->cols(); ++c) {
    if ((*logits)(0, c) > (*logits)(0, best)) best = c;
  }
  return static_cast<int>(best);
}

void DenseLayer::encode(io::Writer& w) const {
  w.u8(relu_ ? 1 : 0);
  w_.encode(w);
  w.f64s(b_);
  m_w_.encode(w);
  v_w_.encode(w);
  w.f64s(m_b_);
  w.f64s(v_b_);
}

DenseLayer DenseLayer::decode(io::Cursor& c) {
  DenseLayer l;
  const std::uint8_t relu = c.u8();
  if (relu > 1) throw io::MalformedError("DenseLayer: bad ReLU flag");
  l.relu_ = relu == 1;
  l.w_ = linalg::Matrix::decode(c);
  l.b_ = c.f64s();
  l.m_w_ = linalg::Matrix::decode(c);
  l.v_w_ = linalg::Matrix::decode(c);
  l.m_b_ = c.f64s();
  l.v_b_ = c.f64s();
  const auto same_shape = [&](const linalg::Matrix& m) {
    return m.rows() == l.w_.rows() && m.cols() == l.w_.cols();
  };
  if (l.w_.empty() || l.b_.size() != l.w_.rows() || !same_shape(l.m_w_) ||
      !same_shape(l.v_w_) || l.m_b_.size() != l.b_.size() ||
      l.v_b_.size() != l.b_.size()) {
    throw io::MalformedError("DenseLayer: inconsistent shapes");
  }
  l.grad_w_ = linalg::Matrix(l.w_.rows(), l.w_.cols());
  l.grad_b_.assign(l.b_.size(), 0.0);
  return l;
}

void TwoStageMlp::encode(io::Writer& w) const {
  for (std::size_t dim :
       {config_.structural_dim, config_.statistics_dim, config_.hidden1,
        config_.hidden2, config_.hidden3, config_.num_classes}) {
    w.u64(dim);
  }
  w.i64(adam_t_);
  stage1_a_.encode(w);
  stage1_b_.encode(w);
  stage2_a_.encode(w);
  head_.encode(w);
}

TwoStageMlp TwoStageMlp::decode(io::Cursor& c) {
  TwoStageMlp m;
  TwoStageMlpConfig& cfg = m.config_;
  for (std::size_t* dim : {&cfg.structural_dim, &cfg.statistics_dim,
                           &cfg.hidden1, &cfg.hidden2, &cfg.hidden3,
                           &cfg.num_classes}) {
    *dim = c.u64();
  }
  m.adam_t_ = c.i64();
  m.stage1_a_ = DenseLayer::decode(c);
  m.stage1_b_ = DenseLayer::decode(c);
  m.stage2_a_ = DenseLayer::decode(c);
  m.head_ = DenseLayer::decode(c);
  // The dims are unchecked u64s, so stage2_a's input splits by subtraction
  // rather than summing two of them.
  const std::size_t stage2_in = m.stage2_a_.in_dim();
  const auto chains = [](const DenseLayer& l, std::size_t in,
                         std::size_t out) {
    return l.in_dim() == in && l.out_dim() == out;
  };
  if (!chains(m.stage1_a_, cfg.structural_dim, cfg.hidden1) ||
      !chains(m.stage1_b_, cfg.hidden1, cfg.hidden2) ||
      stage2_in <= cfg.hidden2 ||
      stage2_in - cfg.hidden2 != cfg.statistics_dim ||
      m.stage2_a_.out_dim() != cfg.hidden3 ||
      !chains(m.head_, cfg.hidden3, cfg.num_classes)) {
    throw io::MalformedError("TwoStageMlp: topology mismatch");
  }
  return m;
}

}  // namespace powerlens::nn
