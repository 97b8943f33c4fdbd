#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace figret::nn {

double sigmoid(double x) noexcept {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

void MlpGradients::zero() {
  for (auto& w : weight) std::fill(w.flat().begin(), w.flat().end(), 0.0);
  for (auto& b : bias) std::fill(b.begin(), b.end(), 0.0);
}

Mlp::Mlp(const MlpConfig& config) : cfg_(config) {
  if (cfg_.layer_sizes.size() < 2)
    throw std::invalid_argument("Mlp: need at least input and output layers");
  util::Rng rng(cfg_.seed);
  for (std::size_t l = 0; l + 1 < cfg_.layer_sizes.size(); ++l) {
    const std::size_t in = cfg_.layer_sizes[l];
    const std::size_t out = cfg_.layer_sizes[l + 1];
    if (in == 0 || out == 0)
      throw std::invalid_argument("Mlp: zero-width layer");
    linalg::Matrix w(out, in);
    // Xavier/Glorot uniform initialization.
    const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
    for (double& v : w.flat()) v = rng.uniform(-bound, bound);
    weight_.push_back(std::move(w));
    bias_.emplace_back(out, 0.0);
  }
}

std::size_t Mlp::num_parameters() const noexcept {
  std::size_t n = 0;
  for (std::size_t l = 0; l < weight_.size(); ++l)
    n += weight_[l].size() + bias_[l].size();
  return n;
}

std::span<const double> Mlp::forward(std::span<const double> x,
                                     MlpWorkspace& ws) const {
  if (x.size() != input_size())
    throw std::invalid_argument("Mlp::forward: input size mismatch");
  ws.pre.resize(weight_.size());
  ws.post.resize(weight_.size());
  // Same reduction order as the batched matmul_t kernel, so forward_batch
  // rows stay bit-identical to this path.
  linalg::matvec_into(weight_[0], x, ws.pre[0]);
  return finish_forward(ws);
}

std::span<const double> Mlp::forward_sparse(
    std::span<const std::size_t> index, std::span<const double> value,
    const linalg::Matrix& w0_t, MlpWorkspace& ws) const {
  if (w0_t.rows() != input_size() || w0_t.cols() != weight_[0].rows())
    throw std::invalid_argument("Mlp::forward_sparse: w0_t shape mismatch");
  ws.pre.resize(weight_.size());
  ws.post.resize(weight_.size());
  // Same lane order as matvec_into, so the first layer is bit-identical to
  // forward() on the dense row.
  linalg::matvec_sparse_into(w0_t, index, value, ws.pre[0]);
  return finish_forward(ws);
}

std::span<const double> Mlp::finish_forward(MlpWorkspace& ws) const {
  const std::size_t layers = weight_.size();
  for (std::size_t l = 0; l < layers; ++l) {
    auto& pre = ws.pre[l];
    if (l > 0) linalg::matvec_into(weight_[l], ws.post[l - 1], pre);
    const std::vector<double>& b = bias_[l];
    for (std::size_t r = 0; r < pre.size(); ++r) pre[r] += b[r];

    auto& post = ws.post[l];
    post.resize(pre.size());
    const bool last = l + 1 == layers;
    if (!last) {
      for (std::size_t i = 0; i < pre.size(); ++i)
        post[i] = pre[i] > 0.0 ? pre[i] : 0.0;  // ReLU
    } else if (cfg_.output == OutputActivation::kSigmoid) {
      for (std::size_t i = 0; i < pre.size(); ++i) post[i] = sigmoid(pre[i]);
    } else {
      post = pre;
    }
  }
  return ws.post.back();
}

const linalg::Matrix& Mlp::forward_batch(const linalg::Matrix& x,
                                         MlpBatchWorkspace& ws) const {
  if (x.cols() != input_size())
    throw std::invalid_argument("Mlp::forward_batch: input size mismatch");
  const std::size_t layers = weight_.size();
  ws.pre.resize(layers);
  ws.post.resize(layers);

  const linalg::Matrix* in = &x;
  for (std::size_t l = 0; l < layers; ++l) {
    // [batch x out] = [batch x in] * W^T; each element reduces over the
    // input dimension in ascending order, exactly like the per-sample dot.
    ws.pre[l] = in->matmul_t(weight_[l]);
    linalg::Matrix& pre = ws.pre[l];
    const std::vector<double>& b = bias_[l];
    for (std::size_t r = 0; r < pre.rows(); ++r) {
      const std::span<double> row = pre.row(r);
      for (std::size_t i = 0; i < row.size(); ++i) row[i] += b[i];
    }

    linalg::Matrix& post = ws.post[l];
    if (post.rows() != pre.rows() || post.cols() != pre.cols())
      post = linalg::Matrix(pre.rows(), pre.cols());
    const std::span<const double> src = pre.flat();
    const std::span<double> dst = post.flat();
    const bool last = l + 1 == layers;
    if (!last) {
      for (std::size_t i = 0; i < src.size(); ++i)
        dst[i] = src[i] > 0.0 ? src[i] : 0.0;  // ReLU
    } else if (cfg_.output == OutputActivation::kSigmoid) {
      for (std::size_t i = 0; i < src.size(); ++i) dst[i] = sigmoid(src[i]);
    } else {
      std::copy(src.begin(), src.end(), dst.begin());
    }
    in = &post;
  }
  return ws.post.back();
}

void Mlp::backward(std::span<const double> x, const MlpWorkspace& ws,
                   std::span<const double> dl_doutput,
                   MlpGradients& grads) const {
  const std::size_t layers = weight_.size();
  if (ws.post.size() != layers)
    throw std::invalid_argument("Mlp::backward: stale workspace");
  if (dl_doutput.size() != output_size())
    throw std::invalid_argument("Mlp::backward: output grad size mismatch");

  // delta = dL/d(pre-activation) of the current layer, starting at the top.
  std::vector<double> delta(dl_doutput.begin(), dl_doutput.end());
  if (cfg_.output == OutputActivation::kSigmoid) {
    const auto& y = ws.post.back();
    for (std::size_t i = 0; i < delta.size(); ++i)
      delta[i] *= y[i] * (1.0 - y[i]);
  }

  for (std::size_t li = layers; li-- > 0;) {
    const std::span<const double> in = li == 0
                                           ? x
                                           : std::span<const double>(
                                                 ws.post[li - 1]);
    linalg::Matrix& gw = grads.weight[li];
    auto& gb = grads.bias[li];
    for (std::size_t r = 0; r < gw.rows(); ++r) {
      const double d = delta[r];
      if (d == 0.0) continue;
      gb[r] += d;
      linalg::axpy(d, in, gw.row(r));
    }
    if (li == 0) break;

    // Propagate: delta_prev = W^T delta, masked by ReLU'(pre_{l-1}).
    const linalg::Matrix& w = weight_[li];
    std::vector<double> prev(w.cols(), 0.0);
    for (std::size_t r = 0; r < w.rows(); ++r) {
      const double d = delta[r];
      if (d == 0.0) continue;
      linalg::axpy(d, w.row(r), prev);
    }
    const auto& pre = ws.pre[li - 1];
    for (std::size_t i = 0; i < prev.size(); ++i)
      if (pre[i] <= 0.0) prev[i] = 0.0;
    delta = std::move(prev);
  }
}

void Mlp::backward_batch(const linalg::Matrix& x, const MlpBatchWorkspace& ws,
                         const linalg::Matrix& dl_doutput,
                         MlpGradients& grads) const {
  const std::size_t layers = weight_.size();
  if (ws.post.size() != layers || ws.post.back().rows() != x.rows())
    throw std::invalid_argument("Mlp::backward_batch: stale workspace");
  if (dl_doutput.rows() != x.rows() || dl_doutput.cols() != output_size())
    throw std::invalid_argument(
        "Mlp::backward_batch: output grad shape mismatch");

  // delta = dL/d(pre-activation), [batch x width] of the current layer.
  linalg::Matrix delta = dl_doutput;
  if (cfg_.output == OutputActivation::kSigmoid) {
    const linalg::Matrix& y = ws.post.back();
    std::span<double> d = delta.flat();
    const std::span<const double> yv = y.flat();
    for (std::size_t i = 0; i < d.size(); ++i) d[i] *= yv[i] * (1.0 - yv[i]);
  }

  for (std::size_t li = layers; li-- > 0;) {
    const linalg::Matrix& in = li == 0 ? x : ws.post[li - 1];
    // Summed-over-batch gradients: delta^T * in is [out x in_width], with
    // the batch reduction in ascending sample order.
    grads.weight[li] += delta.t_matmul(in);
    auto& gb = grads.bias[li];
    for (std::size_t b = 0; b < delta.rows(); ++b) {
      const std::span<const double> row = delta.row(b);
      for (std::size_t r = 0; r < row.size(); ++r) gb[r] += row[r];
    }
    if (li == 0) break;

    // Propagate: delta_prev = delta * W, masked by ReLU'(pre_{l-1}).
    linalg::Matrix prev = delta.matmul(weight_[li]);
    const std::span<const double> pre = ws.pre[li - 1].flat();
    std::span<double> pv = prev.flat();
    for (std::size_t i = 0; i < pv.size(); ++i)
      if (pre[i] <= 0.0) pv[i] = 0.0;
    delta = std::move(prev);
  }
}

MlpGradients Mlp::make_gradients() const {
  MlpGradients g;
  for (std::size_t l = 0; l < weight_.size(); ++l) {
    g.weight.emplace_back(weight_[l].rows(), weight_[l].cols());
    g.bias.emplace_back(bias_[l].size(), 0.0);
  }
  return g;
}

}  // namespace figret::nn
