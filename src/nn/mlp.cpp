#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/parallel.h"
#include "util/rng.h"

namespace figret::nn {
namespace {

// Pool tasks of the minibatch passes take a fixed number of output rows,
// sized from the multiply-adds per row alone (about kChunkWork per task),
// never from the pool width. Chunking only decides which elements a task
// computes — each element's reduction order is the kernel's — so results are
// the same at any width. `min_rows` keeps a task's slice of a strided
// operand at least a few cache lines wide. Gradient fills take kChunkWork
// elements per task.
constexpr std::size_t kChunkWork = std::size_t{1} << 18;

std::size_t rows_per_chunk(std::size_t work_per_row,
                           std::size_t min_rows = 1) {
  return std::max<std::size_t>(
      min_rows, kChunkWork / std::max<std::size_t>(1, work_per_row));
}

void zero_fill(std::span<double> v) {
  util::parallel_for_ranges(v.size(), kChunkWork,
                            [&](std::size_t i0, std::size_t i1) {
                              std::fill(v.begin() + i0, v.begin() + i1, 0.0);
                            });
}

}  // namespace

double sigmoid(double x) noexcept {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

void MlpGradients::zero() {
  for (auto& w : weight) zero_fill(w.flat());
  for (auto& b : bias) std::fill(b.begin(), b.end(), 0.0);
}

void MlpGradients::zero(std::span<const std::size_t> active_inputs) {
  if (weight.empty()) return;
  linalg::check_indices(active_inputs, weight[0].cols(),
                        "MlpGradients::zero");
  if (active_inputs.size() == weight[0].cols()) return zero();
  linalg::Matrix& w0 = weight[0];
  util::parallel_for_ranges(
      w0.rows(), rows_per_chunk(active_inputs.size()),
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          const std::span<double> row = w0.row(r);
          for (std::size_t c : active_inputs) row[c] = 0.0;
        }
      });
  for (std::size_t l = 1; l < weight.size(); ++l) zero_fill(weight[l].flat());
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

void Mlp::activate(std::size_t l, std::span<double> pre,
                   std::span<double> post, std::size_t r0,
                   std::size_t r1) const {
  const std::vector<double>& b = bias_[l];
  for (std::size_t r = r0; r < r1; ++r) pre[r] += b[r];
  if (l + 1 < weight_.size()) {
    for (std::size_t r = r0; r < r1; ++r)
      post[r] = pre[r] > 0.0 ? pre[r] : 0.0;  // ReLU
  } else {
    for (std::size_t r = r0; r < r1; ++r) post[r] = sigmoid(pre[r]);
  }
}

std::span<const double> Mlp::forward(std::span<const double> x,
                                     MlpWorkspace& ws) const {
  if (x.size() != input_size())
    throw std::invalid_argument("Mlp::forward: input size mismatch");
  const std::size_t layers = weight_.size();
  ws.pre.resize(layers);
  ws.post.resize(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    // Same reduction order as the batched matmul_t kernel, so forward_batch
    // and forward_sparse rows stay bit-identical to this path.
    const std::span<const double> in =
        l == 0 ? x : std::span<const double>(ws.post[l - 1]);
    linalg::matvec_into(weight_[l], in, ws.pre[l]);
    ws.post[l].resize(ws.pre[l].size());
    activate(l, ws.pre[l], ws.post[l], 0, ws.pre[l].size());
  }
  return ws.post.back();
}

const linalg::Matrix& Mlp::forward_sparse(
    std::span<const linalg::SparseRow> rows, const linalg::Matrix& w0_t,
    MlpBatchWorkspace& ws) const {
  const OutputRun all{0, output_size()};
  return forward_sparse(rows, w0_t, ws, std::span(&all, 1));
}

const linalg::Matrix& Mlp::forward_sparse(
    std::span<const linalg::SparseRow> rows, const linalg::Matrix& w0_t,
    MlpBatchWorkspace& ws, std::span<const OutputRun> out_runs) const {
  if (w0_t.rows() != input_size() || w0_t.cols() != weight_[0].rows())
    throw std::invalid_argument("Mlp::forward_sparse: w0_t shape mismatch");
  std::size_t prev_end = 0;
  for (const OutputRun& run : out_runs) {
    if (run.begin < prev_end || run.end < run.begin ||
        run.end > output_size())
      throw std::invalid_argument("Mlp::forward_sparse: bad output run");
    prev_end = run.end;
  }
  const std::size_t layers = weight_.size();
  const std::size_t batch = rows.size();
  ws.pre.resize(layers);
  ws.post.resize(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    const linalg::Matrix& w = weight_[l];
    linalg::Matrix& pre = ws.pre[l];
    linalg::Matrix& post = ws.post[l];
    if (l == 0)
      linalg::matvec_sparse_into(w0_t, rows, pre);
    else
      pre.reset(batch, w.rows());
    post.reset(batch, w.rows());
    const auto run = [&](std::size_t j0, std::size_t j1) {
      if (l > 0) linalg::matmul_t_into(ws.post[l - 1], w, j0, j1, pre);
      for (std::size_t s = 0; s < batch; ++s)
        activate(l, pre.row(s), post.row(s), j0, j1);
    };
    if (l + 1 < layers)
      run(0, w.rows());
    else
      for (const OutputRun& r : out_runs) run(r.begin, r.end);
  }
  return ws.post.back();
}

void Mlp::reserve(MlpBatchWorkspace& ws, std::size_t rows) const {
  ws.pre.resize(weight_.size());
  ws.post.resize(weight_.size());
  for (std::size_t l = 0; l < weight_.size(); ++l) {
    ws.pre[l].reset(rows, weight_[l].rows());
    ws.post[l].reset(rows, weight_[l].rows());
  }
}

const linalg::Matrix& Mlp::forward_batch(const linalg::Matrix& x,
                                         MlpBatchWorkspace& ws) const {
  if (x.cols() != input_size())
    throw std::invalid_argument("Mlp::forward_batch: input size mismatch");
  return run_forward_batch(x, nullptr, ws);
}

const linalg::Matrix& Mlp::forward_batch(
    const linalg::Matrix& x_active, std::span<const std::size_t> active_inputs,
    MlpBatchWorkspace& ws) const {
  linalg::check_indices(active_inputs, input_size(), "Mlp::forward_batch");
  if (x_active.cols() != active_inputs.size())
    throw std::invalid_argument("Mlp::forward_batch: input size mismatch");
  // With every input active, x_active is the full-width input.
  return run_forward_batch(
      x_active, active_inputs.size() == input_size() ? nullptr : &active_inputs,
      ws);
}

const linalg::Matrix& Mlp::run_forward_batch(
    const linalg::Matrix& x, const std::span<const std::size_t>* active,
    MlpBatchWorkspace& ws) const {
  const std::size_t layers = weight_.size();
  const std::size_t batch = x.rows();
  ws.pre.resize(layers);
  ws.post.resize(layers);

  const linalg::Matrix* in = &x;
  for (std::size_t l = 0; l < layers; ++l) {
    const linalg::Matrix& w = weight_[l];
    linalg::Matrix& pre = ws.pre[l];
    linalg::Matrix& post = ws.post[l];
    pre.reset(batch, w.rows());
    post.reset(batch, w.rows());
    const bool sparse = l == 0 && active != nullptr;
    util::parallel_for_ranges(
        w.rows(), rows_per_chunk(batch * in->cols()),
        [&](std::size_t r0, std::size_t r1) {
          // [batch x out] = [batch x in] * W^T; each element reduces over
          // the input dimension in ascending order, exactly like the
          // per-sample dot.
          if (sparse)
            linalg::matmul_t_into(*in, *active, w, r0, r1, pre);
          else
            linalg::matmul_t_into(*in, w, r0, r1, pre);
          for (std::size_t s = 0; s < batch; ++s)
            activate(l, pre.row(s), post.row(s), r0, r1);
        });
    in = &post;
  }
  return ws.post.back();
}

void Mlp::backward_batch(const linalg::Matrix& x, MlpBatchWorkspace& ws,
                         const linalg::Matrix& dl_doutput,
                         MlpGradients& grads) const {
  if (x.cols() != input_size())
    throw std::invalid_argument("Mlp::backward_batch: input size mismatch");
  run_backward_batch(x, nullptr, ws, dl_doutput, grads);
}

void Mlp::backward_batch(const linalg::Matrix& x_active,
                         std::span<const std::size_t> active_inputs,
                         MlpBatchWorkspace& ws,
                         const linalg::Matrix& dl_doutput,
                         MlpGradients& grads) const {
  linalg::check_indices(active_inputs, input_size(), "Mlp::backward_batch");
  if (x_active.cols() != active_inputs.size())
    throw std::invalid_argument("Mlp::backward_batch: input size mismatch");
  run_backward_batch(
      x_active, active_inputs.size() == input_size() ? nullptr : &active_inputs,
      ws, dl_doutput, grads);
}

void Mlp::run_backward_batch(const linalg::Matrix& x,
                             const std::span<const std::size_t>* active,
                             MlpBatchWorkspace& ws,
                             const linalg::Matrix& dl_doutput,
                             MlpGradients& grads) const {
  const std::size_t layers = weight_.size();
  const std::size_t batch = x.rows();
  bool fresh = ws.pre.size() == layers && ws.post.size() == layers;
  for (std::size_t l = 0; fresh && l < layers; ++l)
    fresh = ws.pre[l].rows() == batch &&
            ws.pre[l].cols() == weight_[l].rows() &&
            ws.post[l].rows() == batch &&
            ws.post[l].cols() == weight_[l].rows();
  if (!fresh) throw std::invalid_argument("Mlp::backward_batch: stale workspace");
  if (dl_doutput.rows() != batch || dl_doutput.cols() != output_size())
    throw std::invalid_argument(
        "Mlp::backward_batch: output grad shape mismatch");
  bool shaped = grads.weight.size() == layers && grads.bias.size() == layers;
  for (std::size_t l = 0; shaped && l < layers; ++l)
    shaped = grads.weight[l].rows() == weight_[l].rows() &&
             grads.weight[l].cols() == weight_[l].cols() &&
             grads.bias[l].size() == bias_[l].size();
  if (!shaped)
    throw std::invalid_argument("Mlp::backward_batch: gradient shape mismatch");

  // delta = dL/d(pre-activation), [batch x width] of the current layer,
  // starting at the sigmoid head.
  ws.delta.reset(batch, output_size());
  {
    const std::span<const double> dl = dl_doutput.flat();
    const std::span<const double> y = ws.post.back().flat();
    std::span<double> d = ws.delta.flat();
    for (std::size_t i = 0; i < d.size(); ++i)
      d[i] = dl[i] * (y[i] * (1.0 - y[i]));
  }

  for (std::size_t li = layers; li-- > 0;) {
    const linalg::Matrix& delta = ws.delta;
    const linalg::Matrix& in = li == 0 ? x : ws.post[li - 1];
    const bool sparse = li == 0 && active != nullptr;
    linalg::Matrix& gw = grads.weight[li];
    std::vector<double>& gb = grads.bias[li];
    util::parallel_for_ranges(
        gw.rows(), rows_per_chunk(batch * in.cols()),
        [&](std::size_t r0, std::size_t r1) {
          // Summed-over-batch gradients: rows [r0, r1) of delta^T * in, each
          // element adding its samples' terms in ascending order.
          if (sparse)
            linalg::t_matmul_accum(delta, in, *active, r0, r1, gw);
          else
            linalg::t_matmul_accum(delta, in, r0, r1, gw);
          for (std::size_t s = 0; s < batch; ++s) {
            const std::span<const double> row = delta.row(s);
            for (std::size_t r = r0; r < r1; ++r) gb[r] += row[r];
          }
        });
    if (li == 0) break;

    // Propagate: delta_prev = delta * W, masked by ReLU'(pre_{l-1}).
    const linalg::Matrix& w = weight_[li];
    const linalg::Matrix& pre = ws.pre[li - 1];
    linalg::Matrix& prev = ws.delta_prev;
    prev.reset(batch, w.cols());
    util::parallel_for_ranges(
        w.cols(), rows_per_chunk(batch * w.rows(), 16),
        [&](std::size_t c0, std::size_t c1) {
          linalg::matmul_into(delta, w, c0, c1, prev);
          for (std::size_t s = 0; s < batch; ++s)
            for (std::size_t c = c0; c < c1; ++c)
              if (pre(s, c) <= 0.0) prev(s, c) = 0.0;
        });
    std::swap(ws.delta, ws.delta_prev);
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
