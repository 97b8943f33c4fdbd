// Fully connected network with manual backpropagation — the deep-learning
// substrate behind FIGRET and DOTE (paper §4.4, Appendix D.4: "five fully
// connected layers with 128 neurons each, ReLU activations, Sigmoid output").
//
// The loss is *not* part of this module: TE losses (MLU + fine-grained
// robustness) are computed by the te library, which supplies dL/d(output) to
// Mlp::backward. Gradient correctness is verified against finite differences
// in tests/test_nn.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace figret::nn {

enum class OutputActivation { kSigmoid, kIdentity };

struct MlpConfig {
  /// Layer widths including input and output, e.g. {in, 128, ..., 128, out}.
  std::vector<std::size_t> layer_sizes;
  OutputActivation output = OutputActivation::kSigmoid;
  std::uint64_t seed = 1;
};

/// Per-layer parameter gradients; same shapes as the parameters.
struct MlpGradients {
  std::vector<linalg::Matrix> weight;  // [out x in] per layer
  std::vector<std::vector<double>> bias;

  void zero();
};

/// Scratch buffers for one forward/backward pass (reusable across samples).
struct MlpWorkspace {
  std::vector<std::vector<double>> pre;   // pre-activation per layer
  std::vector<std::vector<double>> post;  // post-activation per layer
};

/// Scratch for a minibatch pass: one [batch x width] matrix per layer.
struct MlpBatchWorkspace {
  std::vector<linalg::Matrix> pre;
  std::vector<linalg::Matrix> post;
};

class Mlp {
 public:
  explicit Mlp(const MlpConfig& config);

  std::size_t input_size() const noexcept { return cfg_.layer_sizes.front(); }
  std::size_t output_size() const noexcept { return cfg_.layer_sizes.back(); }
  OutputActivation output_activation() const noexcept { return cfg_.output; }
  std::size_t num_layers() const noexcept { return weight_.size(); }
  std::size_t num_parameters() const noexcept;

  /// Forward pass; the returned span aliases ws.post.back() and remains valid
  /// until the next forward() with the same workspace.
  std::span<const double> forward(std::span<const double> x,
                                  MlpWorkspace& ws) const;

  /// Forward pass for a sparse input row: x[index[i]] = value[i], zero
  /// elsewhere (index strictly ascending). `w0_t` must be
  /// weights()[0].transposed(), kept by the caller so the first layer reads
  /// only the weight rows of active inputs. Output is bit-identical to
  /// forward() on the dense row (linalg::matvec_sparse_into); the returned
  /// span aliases ws.post.back() like forward()'s.
  std::span<const double> forward_sparse(std::span<const std::size_t> index,
                                         std::span<const double> value,
                                         const linalg::Matrix& w0_t,
                                         MlpWorkspace& ws) const;

  /// Backpropagates dL/d(output) through the pass recorded in `ws`,
  /// *accumulating* into `grads` (callers zero() between minibatches).
  void backward(std::span<const double> x, const MlpWorkspace& ws,
                std::span<const double> dl_doutput, MlpGradients& grads) const;

  /// Minibatch forward: `x` is [batch x input_size], row b is sample b. The
  /// returned matrix aliases ws.post.back() ([batch x output_size]) and row b
  /// is bit-identical to forward() on row b alone — the matmul kernel reduces
  /// each dot product in the same index order as the per-sample path.
  const linalg::Matrix& forward_batch(const linalg::Matrix& x,
                                      MlpBatchWorkspace& ws) const;

  /// Minibatch backward: `dl_doutput` is [batch x output_size]. Accumulates
  /// the summed-over-batch parameter gradients into `grads`, matching a
  /// sample-by-sample backward() over the rows of `x`.
  void backward_batch(const linalg::Matrix& x, const MlpBatchWorkspace& ws,
                      const linalg::Matrix& dl_doutput,
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
  /// Completes a pass whose ws.pre[0] holds W0 x (bias not yet added):
  /// layer 0 bias and activation, then every later layer.
  std::span<const double> finish_forward(MlpWorkspace& ws) const;

  MlpConfig cfg_;
  std::vector<linalg::Matrix> weight_;
  std::vector<std::vector<double>> bias_;
};

/// Numerically stable logistic function.
double sigmoid(double x) noexcept;

}  // namespace figret::nn
