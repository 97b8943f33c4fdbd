#include "support/reference_kernels.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "te/loss.h"
#include "traffic/stats.h"
#include "util/rng.h"

namespace figret::linalg {

Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("matmul_reference: inner dimension mismatch");
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

Matrix t_matmul_reference(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows())
    throw std::invalid_argument("t_matmul_reference: dimension mismatch");
  Matrix out(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aki * b(k, j);
    }
  }
  return out;
}

Matrix matmul_t_reference(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols())
    throw std::invalid_argument("matmul_t_reference: dimension mismatch");
  Matrix out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::span<const double> arow = a.row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const std::span<const double> brow = b.row(j);
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      out(i, j) = acc;
    }
  }
  return out;
}

}  // namespace figret::linalg

namespace figret::nn {

void backward_reference(const Mlp& net, std::span<const double> x,
                        const MlpWorkspace& ws,
                        std::span<const double> dl_doutput,
                        MlpGradients& grads) {
  const std::size_t layers = net.num_layers();
  if (ws.post.size() != layers)
    throw std::invalid_argument("backward_reference: stale workspace");
  if (dl_doutput.size() != net.output_size())
    throw std::invalid_argument("backward_reference: output grad size");

  // delta = dL/d(pre-activation) of the current layer, from the sigmoid head.
  std::vector<double> delta(dl_doutput.begin(), dl_doutput.end());
  const std::vector<double>& y = ws.post.back();
  for (std::size_t i = 0; i < delta.size(); ++i)
    delta[i] *= y[i] * (1.0 - y[i]);

  for (std::size_t li = layers; li-- > 0;) {
    const std::span<const double> in =
        li == 0 ? x : std::span<const double>(ws.post[li - 1]);
    linalg::Matrix& gw = grads.weight[li];
    for (std::size_t r = 0; r < gw.rows(); ++r) {
      grads.bias[li][r] += delta[r];
      const std::span<double> row = gw.row(r);
      for (std::size_t c = 0; c < row.size(); ++c) row[c] += delta[r] * in[c];
    }
    if (li == 0) break;

    // delta_prev = W^T delta, masked by ReLU'(pre_{l-1}).
    const linalg::Matrix& w = net.weights()[li];
    std::vector<double> prev(w.cols(), 0.0);
    for (std::size_t r = 0; r < w.rows(); ++r) {
      const std::span<const double> row = w.row(r);
      for (std::size_t c = 0; c < row.size(); ++c) prev[c] += delta[r] * row[c];
    }
    const std::vector<double>& pre = ws.pre[li - 1];
    for (std::size_t i = 0; i < prev.size(); ++i)
      if (pre[i] <= 0.0) prev[i] = 0.0;
    delta = std::move(prev);
  }
}

AdamReference::AdamReference(const Mlp& net, const AdamConfig& cfg)
    : cfg_(cfg), m_(net.make_gradients()), v_(net.make_gradients()) {}

void AdamReference::step(Mlp& net, const MlpGradients& grads) {
  ++t_;
  const double bc1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
  double scale = 1.0;
  if (cfg_.clip_norm > 0.0) {
    double norm_sq = 0.0;
    for (const auto& gw : grads.weight)
      for (double g : gw.flat()) norm_sq += g * g;
    for (const auto& gb : grads.bias)
      for (double g : gb) norm_sq += g * g;
    const double norm = std::sqrt(norm_sq);
    if (norm > cfg_.clip_norm) scale = cfg_.clip_norm / norm;
  }
  auto update = [&](double& param, double grad, double& m, double& v) {
    grad *= scale;
    m = cfg_.beta1 * m + (1.0 - cfg_.beta1) * grad;
    v = cfg_.beta2 * v + (1.0 - cfg_.beta2) * grad * grad;
    const double mhat = m / bc1;
    const double vhat = v / bc2;
    param -= cfg_.learning_rate * mhat / (std::sqrt(vhat) + cfg_.epsilon);
  };
  for (std::size_t l = 0; l < grads.weight.size(); ++l) {
    const std::span<double> w = net.weights()[l].flat();
    const std::span<const double> g = grads.weight[l].flat();
    const std::span<double> m = m_.weight[l].flat();
    const std::span<double> v = v_.weight[l].flat();
    for (std::size_t i = 0; i < w.size(); ++i) update(w[i], g[i], m[i], v[i]);
    std::vector<double>& b = net.biases()[l];
    for (std::size_t i = 0; i < b.size(); ++i)
      update(b[i], grads.bias[l][i], m_.bias[l][i], v_.bias[l][i]);
  }
}

}  // namespace figret::nn

namespace figret::te {

void edge_loads_reference_into(const PathSet& ps,
                               const traffic::DemandMatrix& demand,
                               const TeConfig& config,
                               std::vector<double>& out) {
  if (config.size() != ps.num_paths())
    throw std::invalid_argument("edge_loads: config size mismatch");
  if (demand.size() != ps.num_pairs())
    throw std::invalid_argument("edge_loads: demand size mismatch");
  out.assign(ps.num_edges(), 0.0);
  for (std::size_t pid = 0; pid < ps.num_paths(); ++pid) {
    const double flow = demand[ps.pair_of_path(pid)] * config[pid];
    if (flow == 0.0) continue;
    for (net::EdgeId e : ps.path_edges(pid)) out[e] += flow;
  }
}

}  // namespace figret::te

namespace figret::te {
namespace {

const linalg::Matrix& forward_batch_reference(const nn::Mlp& net,
                                              const linalg::Matrix& x,
                                              nn::MlpBatchWorkspace& ws) {
  const std::size_t layers = net.num_layers();
  ws.pre.resize(layers);
  ws.post.resize(layers);
  const linalg::Matrix* in = &x;
  for (std::size_t l = 0; l < layers; ++l) {
    const linalg::Matrix& w = net.weights()[l];
    linalg::Matrix& pre = ws.pre[l];
    pre = linalg::Matrix(in->rows(), w.rows());
    linalg::matmul_t_into(*in, w, 0, w.rows(), pre);
    const std::vector<double>& b = net.biases()[l];
    for (std::size_t r = 0; r < pre.rows(); ++r) {
      const std::span<double> row = pre.row(r);
      for (std::size_t i = 0; i < row.size(); ++i) row[i] += b[i];
    }
    linalg::Matrix& post = ws.post[l];
    post = linalg::Matrix(pre.rows(), pre.cols());
    const std::span<const double> src = pre.flat();
    const std::span<double> dst = post.flat();
    if (l + 1 < layers) {
      for (std::size_t i = 0; i < src.size(); ++i)
        dst[i] = src[i] > 0.0 ? src[i] : 0.0;  // ReLU
    } else {
      for (std::size_t i = 0; i < src.size(); ++i) dst[i] = nn::sigmoid(src[i]);
    }
    in = &post;
  }
  return ws.post.back();
}

void backward_batch_reference(const nn::Mlp& net, const linalg::Matrix& x,
                              const nn::MlpBatchWorkspace& ws,
                              const linalg::Matrix& dl,
                              nn::MlpGradients& grads) {
  const std::size_t layers = net.num_layers();
  linalg::Matrix delta = dl;
  {
    std::span<double> d = delta.flat();
    const std::span<const double> y = ws.post.back().flat();
    for (std::size_t i = 0; i < d.size(); ++i) d[i] *= y[i] * (1.0 - y[i]);
  }
  for (std::size_t li = layers; li-- > 0;) {
    const linalg::Matrix& in = li == 0 ? x : ws.post[li - 1];
    // The gradients are zero here, so accumulating into them gives the
    // bytes of a product into a fresh matrix.
    linalg::t_matmul_accum(delta, in, 0, delta.cols(), grads.weight[li]);
    std::vector<double>& gb = grads.bias[li];
    for (std::size_t b = 0; b < delta.rows(); ++b) {
      const std::span<const double> row = delta.row(b);
      for (std::size_t r = 0; r < row.size(); ++r) gb[r] += row[r];
    }
    if (li == 0) break;
    const linalg::Matrix& w = net.weights()[li];
    linalg::Matrix prev(delta.rows(), w.cols());
    linalg::matmul_into(delta, w, 0, w.cols(), prev);
    const std::span<const double> pre = ws.pre[li - 1].flat();
    std::span<double> pv = prev.flat();
    for (std::size_t i = 0; i < pv.size(); ++i)
      if (pre[i] <= 0.0) pv[i] = 0.0;
    delta = std::move(prev);
  }
}

}  // namespace

ReferenceFit figret_fit_reference(const PathSet& ps, const FigretOptions& opt,
                                  const traffic::TrafficTrace& train) {
  const std::size_t pairs = ps.num_pairs();
  double scale = 1e-12;
  for (const auto& dm : train.snapshots) scale = std::max(scale, dm.max_value());
  std::vector<double> weights = traffic::pair_variances(train);
  for (double& w : weights) w /= scale * scale;

  nn::MlpConfig mcfg;
  mcfg.layer_sizes.push_back(opt.history * pairs);
  for (std::size_t h : opt.hidden) mcfg.layer_sizes.push_back(h);
  mcfg.layer_sizes.push_back(ps.num_paths());
  mcfg.seed = opt.seed;
  nn::Mlp model(mcfg);

  nn::AdamConfig acfg;
  acfg.learning_rate = opt.learning_rate;
  acfg.clip_norm = opt.clip_norm;
  nn::AdamReference adam(model, acfg);
  nn::MlpGradients grads = model.make_gradients();
  const LossConfig lcfg{opt.robust_weight};
  util::Rng rng(opt.seed ^ 0xF16A2Eu);

  // Sample t trains on {D_{t-lag-H+1}, ..., D_{t-lag}} against D_t.
  const std::size_t first = opt.history + opt.target_lag - 1;
  std::vector<std::size_t> samples;
  for (std::size_t t = first; t < train.size(); ++t) samples.push_back(t);

  const std::size_t in_dim = opt.history * pairs;
  std::vector<double> grad_sig;
  nn::MlpBatchWorkspace bws;
  double final_loss = 0.0;
  for (std::size_t epoch = 0; epoch < opt.epochs; ++epoch) {
    const auto perm = rng.permutation(samples.size());
    double epoch_loss = 0.0;
    for (std::size_t k0 = 0; k0 < samples.size(); k0 += opt.batch_size) {
      const std::size_t batch =
          std::min(samples.size(), k0 + opt.batch_size) - k0;
      linalg::Matrix x(batch, in_dim);
      for (std::size_t b = 0; b < batch; ++b) {
        const std::size_t t = samples[perm[k0 + b]];
        const std::span<double> row = x.row(b);
        for (std::size_t h = 0; h < opt.history; ++h)
          train[t - first + h].for_each_active([&](std::size_t p, double v) {
            if (v != 0.0) row[h * pairs + p] = v / scale;
          });
      }
      const linalg::Matrix& sig = forward_batch_reference(model, x, bws);
      linalg::Matrix dl(batch, ps.num_paths());
      const double inv = 1.0 / static_cast<double>(opt.batch_size);
      for (std::size_t b = 0; b < batch; ++b) {
        const std::size_t t = samples[perm[k0 + b]];
        epoch_loss += figret_loss(ps, train[t], sig.row(b), weights, lcfg,
                                  &grad_sig)
                          .total;
        for (std::size_t j = 0; j < grad_sig.size(); ++j)
          dl(b, j) = grad_sig[j] * inv;
      }
      for (auto& gw : grads.weight)
        std::fill(gw.flat().begin(), gw.flat().end(), 0.0);
      for (auto& gb : grads.bias) std::fill(gb.begin(), gb.end(), 0.0);
      backward_batch_reference(model, x, bws, dl, grads);
      adam.step(model, grads);
    }
    final_loss = epoch_loss / static_cast<double>(samples.size());
  }
  return ReferenceFit{scale, std::move(weights), std::move(model), final_loss};
}

}  // namespace figret::te
