// Fully connected network with manual backpropagation — the deep-learning
// substrate behind FIGRET and DOTE (paper §4.4, Appendix D.4: "five fully
// connected layers with 128 neurons each, ReLU activations, Sigmoid output").
//
// The loss is *not* part of this module: TE losses (MLU + fine-grained
// robustness) are computed by the te library, which supplies dL/d(output) to
// Mlp::backward_batch. Gradient correctness is verified against finite
// differences in tests/test_mlp.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace figret::nn {

/// ReLU hidden layers and a sigmoid output layer (the split ratios' head).
struct MlpConfig {
  /// Layer widths including input and output, e.g. {in, 128, ..., 128, out}.
  std::vector<std::size_t> layer_sizes;
  std::uint64_t seed = 1;
};

/// Per-layer parameter gradients; same shapes as the parameters.
struct MlpGradients {
  std::vector<linalg::Matrix> weight;  // [out x in] per layer
  std::vector<std::vector<double>> bias;

  void zero();
  /// Zeroes every gradient except the first layer's columns outside
  /// `active_inputs` (strictly ascending), which the active-input
  /// backward_batch never writes: on gradients that were zero there, the
  /// same state as zero() at a fraction of the cost.
  void zero(std::span<const std::size_t> active_inputs);
};

/// Scratch buffers for one single-row forward pass (reusable across samples).
struct MlpWorkspace {
  std::vector<std::vector<double>> pre;   // pre-activation per layer
  std::vector<std::vector<double>> post;  // post-activation per layer
};

/// Scratch for a minibatch pass: one [batch x width] matrix per layer, and
/// the backward pass's two delta buffers. Every buffer keeps its storage
/// across passes, so a training loop allocates nothing once it has seen its
/// largest batch.
struct MlpBatchWorkspace {
  std::vector<linalg::Matrix> pre;
  std::vector<linalg::Matrix> post;
  linalg::Matrix delta, delta_prev;
};

/// Output columns [begin, end) of one forward_sparse run.
struct OutputRun {
  std::size_t begin = 0;
  std::size_t end = 0;
};

class Mlp {
 public:
  explicit Mlp(const MlpConfig& config);

  std::size_t input_size() const noexcept { return cfg_.layer_sizes.front(); }
  std::size_t output_size() const noexcept { return cfg_.layer_sizes.back(); }
  std::size_t num_layers() const noexcept { return weight_.size(); }
  std::size_t num_parameters() const noexcept;

  /// Forward pass; the returned span aliases ws.post.back() and remains valid
  /// until the next forward() with the same workspace.
  std::span<const double> forward(std::span<const double> x,
                                  MlpWorkspace& ws) const;

  /// Forward pass for a batch of sparse input rows (linalg::SparseRow: row
  /// b is x_b[index[i]] = value[i], zero elsewhere, index strictly
  /// ascending). `w0_t` must be weights()[0].transposed(), kept by the
  /// caller so the first layer reads only the weight rows of inputs active
  /// in some row, once per call (linalg::matvec_sparse_into); each later
  /// layer streams its weight rows once for the batch
  /// (linalg::matmul_t_into). Runs on the calling thread. Row b
  /// of the result is bit-identical to forward() on the dense x_b, whatever
  /// the other rows hold. The returned matrix ([rows.size() x output_size()])
  /// aliases ws.post.back() and stays valid until the next pass with `ws`.
  const linalg::Matrix& forward_sparse(std::span<const linalg::SparseRow> rows,
                                       const linalg::Matrix& w0_t,
                                       MlpBatchWorkspace& ws) const;
  /// forward_sparse that computes only the output columns in `out_runs`:
  /// runs [begin, end), ascending and disjoint, below output_size()
  /// (std::invalid_argument otherwise). The output layer reads only those
  /// weight rows (matmul_t_into's column range) and activates only those
  /// columns, so each of them is bit-identical to the full pass; every other
  /// output column is set to zero. The hidden layers run in full, and no
  /// buffer a pass overwrites is zeroed first. A serving
  /// caller passes the paths of the pairs whose ratios it will read.
  const linalg::Matrix& forward_sparse(
      std::span<const linalg::SparseRow> rows, const linalg::Matrix& w0_t,
      MlpBatchWorkspace& ws, std::span<const OutputRun> out_runs) const;
  /// Sizes `ws` for forward_sparse passes of up to `rows` rows, so that
  /// those passes allocate nothing.
  void reserve(MlpBatchWorkspace& ws, std::size_t rows) const;

  /// Minibatch forward: `x` is [batch x input_size], row b is sample b. The
  /// returned matrix aliases ws.post.back() ([batch x output_size]) and row b
  /// is bit-identical to forward() on row b alone — the matmul kernel reduces
  /// each dot product in the same index order as the per-sample path. Each
  /// layer's output rows are computed in fixed chunks on the global pool
  /// (util::parallel_for_ranges); an element's value does not depend on the
  /// chunk, so the result is the same at any pool width.
  const linalg::Matrix& forward_batch(const linalg::Matrix& x,
                                      MlpBatchWorkspace& ws) const;

  /// forward_batch for inputs that are zero outside the columns
  /// `active_inputs` (strictly ascending, below input_size()): column i of
  /// `x_active` ([batch x active_inputs.size()]) holds input
  /// active_inputs[i]. The first layer reads only those weight columns
  /// (linalg::matmul_t_into's column-list form), and the result is
  /// bit-identical to forward_batch on the full-width input.
  const linalg::Matrix& forward_batch(const linalg::Matrix& x_active,
                                      std::span<const std::size_t> active_inputs,
                                      MlpBatchWorkspace& ws) const;

  /// Minibatch backward through the pass recorded in `ws`: `dl_doutput` is
  /// [batch x output_size]. *Accumulates* the summed-over-batch parameter
  /// gradients into `grads` (callers zero() between minibatches): each
  /// gradient element adds its samples' terms in ascending order, four at a
  /// time — on zeroed gradients exactly transpose(delta) * x. Runs in fixed
  /// chunks of output rows on the global pool, with the same result at any
  /// pool width.
  void backward_batch(const linalg::Matrix& x, MlpBatchWorkspace& ws,
                      const linalg::Matrix& dl_doutput,
                      MlpGradients& grads) const;

  /// backward_batch after the active-input forward_batch: the first layer's
  /// gradient is accumulated into the columns `active_inputs` only. Every
  /// other column of the full-width input is zero, so its gradient term is
  /// an exact zero and the result equals the full-width backward_batch's.
  void backward_batch(const linalg::Matrix& x_active,
                      std::span<const std::size_t> active_inputs,
                      MlpBatchWorkspace& ws, const linalg::Matrix& dl_doutput,
                      MlpGradients& grads) const;

  MlpGradients make_gradients() const;

  /// Parameter access for the optimizer (layer-major).
  std::vector<linalg::Matrix>& weights() noexcept { return weight_; }
  std::vector<std::vector<double>>& biases() noexcept { return bias_; }
  const std::vector<linalg::Matrix>& weights() const noexcept {
    return weight_;
  }
  const std::vector<std::vector<double>>& biases() const noexcept {
    return bias_;
  }

 private:
  /// Adds layer l's bias to pre[r0, r1) and writes its activation to
  /// post[r0, r1).
  void activate(std::size_t l, std::span<double> pre, std::span<double> post,
                std::size_t r0, std::size_t r1) const;
  /// The minibatch passes; `active` is null for a full-width input.
  const linalg::Matrix& run_forward_batch(
      const linalg::Matrix& x, const std::span<const std::size_t>* active,
      MlpBatchWorkspace& ws) const;
  void run_backward_batch(const linalg::Matrix& x,
                          const std::span<const std::size_t>* active,
                          MlpBatchWorkspace& ws,
                          const linalg::Matrix& dl_doutput,
                          MlpGradients& grads) const;

  MlpConfig cfg_;
  std::vector<linalg::Matrix> weight_;
  std::vector<std::vector<double>> bias_;
};

/// Numerically stable logistic function.
double sigmoid(double x) noexcept;

}  // namespace figret::nn
