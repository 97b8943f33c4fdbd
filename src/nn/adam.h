// Adam optimizer (Kingma & Ba, 2014) — the optimizer the paper uses for
// FIGRET training (Appendix D.4).
#pragma once

#include <span>

#include "nn/mlp.h"

namespace figret::nn {

struct AdamConfig {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  /// Optional global-norm gradient clipping; <= 0 disables.
  double clip_norm = 0.0;
};

class Adam {
 public:
  /// Throws std::invalid_argument on a learning rate that is not a finite
  /// value > 0, a beta outside [0, 1), an epsilon that is not a finite
  /// value > 0, or a non-finite clip norm.
  Adam(const Mlp& model, const AdamConfig& config = {});

  /// Applies one update to every parameter from the accumulated gradients
  /// (which the caller typically averages over a minibatch before calling).
  /// Throws std::invalid_argument, before any update, when the model's or
  /// the gradients' layer shapes differ from the ones Adam was built for.
  /// The elementwise update runs in fixed chunks of parameter rows on the
  /// global pool. The clip scale is that of one serial norm sum in parameter
  /// order, so the result is the same at any pool width; the serial pass
  /// runs only when a parallel sum with a rigorous rounding bound cannot
  /// prove that the norm is within clip_norm (the scale is then 1 either
  /// way).
  void step(Mlp& model, const MlpGradients& grads);

  /// step() restricted to the first layer's columns `active_inputs`
  /// (strictly ascending) and every later parameter. Every other first-layer
  /// column must have had an exactly zero gradient at every step so far:
  /// its moments are then zero, its update subtracts +0 and its share of the
  /// clip norm adds +0, so skipping it leaves the result bit-identical to
  /// step().
  void step(Mlp& model, const MlpGradients& grads,
            std::span<const std::size_t> active_inputs);

  std::size_t steps_taken() const noexcept { return t_; }

 private:
  /// `active` is null for a full update.
  void update(Mlp& model, const MlpGradients& grads,
              const std::span<const std::size_t>* active);
  /// True when the serial norm of `grads` (over `active`'s first-layer
  /// columns, or all) is proven to be at most clip_norm: then it cannot
  /// scale the step. False when the parallel sum cannot prove it, and on
  /// NaN or infinity.
  bool clip_cannot_bind(const MlpGradients& grads,
                        const std::span<const std::size_t>* active);

  AdamConfig cfg_;
  MlpGradients m_;  // first moment
  MlpGradients v_;  // second moment
  std::vector<double> row_sq_;  // clip_cannot_bind's sum per weight row
  std::size_t t_ = 0;
};

}  // namespace figret::nn
