// FIGRET's burst-aware loss (paper §4.3) and its analytic sub-gradient.
//
//   L(z; D) = M(R(z), D) + w * sum_sd  var_sd * S^max_sd(R(z))      (Eq. 6-8)
//
// where z are the DNN's raw outputs (one logit per candidate path), and the
// TE configuration is recovered by the paper's feasibility construction
// (§6 "normalizing the outputs of the neural network"):
//
//   s_p = sigmoid(z_p),   r_p = s_p / sum_{q in same pair} s_q.
//
// Both max terms (the bottleneck edge in the MLU and the most sensitive path
// per pair) are piecewise smooth; we back-propagate the standard
// sub-gradient through the argmax, which is exactly what PyTorch's autograd
// does for torch.max in the reference implementation.
//
// Setting robust_weight = 0 recovers DOTE's pure-MLU loss (§5.1 baseline 6).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "te/pathset.h"
#include "traffic/demand.h"

namespace figret::te {

struct LossConfig {
  /// Multiplier of the fine-grained robustness term (0 => DOTE).
  double robust_weight = 1.0;
};

struct LossValue {
  double total = 0.0;
  double mlu = 0.0;       // L1
  double robust = 0.0;    // L2 (already scaled by robust_weight)
};

/// Converts sigmoid outputs (in (0,1), one per path) to split ratios by
/// per-pair normalization. `sig` and the result are indexed by global path id.
TeConfig ratios_from_sigmoid(const PathSet& ps, std::span<const double> sig);

/// Allocation-free variant: writes the normalized ratios into `out` (resized
/// once to num_paths). Bit-identical to ratios_from_sigmoid.
void ratios_from_sigmoid_into(const PathSet& ps, std::span<const double> sig,
                              TeConfig& out);

/// ratios_from_sigmoid_into for the pairs `pairs` only: overwrites their
/// paths in `out` (which must hold num_paths entries) with the same bits the
/// full conversion gives, and leaves every other entry as it is.
void ratios_from_sigmoid_into(const PathSet& ps, std::span<const double> sig,
                              std::span<const std::uint32_t> pairs,
                              TeConfig& out);

/// figret_loss's working buffers. A caller that passes the same scratch to
/// successive calls (one per concurrent caller) makes them allocation-free
/// once the buffers reach capacity; the results do not depend on what a
/// previous call left in it.
struct LossScratch {
  TeConfig ratios;
  std::vector<double> load;
  std::vector<std::size_t> argmax_path;
  std::vector<double> grad_r;
};

/// Evaluates the loss at sigmoid outputs `sig` against realized demand `dm`,
/// with per-pair robustness weights `pair_weight` (the paper uses the
/// training-window demand variance, normalized). If `grad_sig` is non-null it
/// receives dL/d(sig) — the gradient with respect to the *sigmoid outputs*,
/// ready to feed nn::Mlp::backward (which applies the sigmoid derivative).
LossValue figret_loss(const PathSet& ps, const traffic::DemandMatrix& dm,
                      std::span<const double> sig,
                      std::span<const double> pair_weight,
                      const LossConfig& cfg, std::vector<double>* grad_sig,
                      LossScratch& scratch);

/// figret_loss on a scratch of its own.
LossValue figret_loss(const PathSet& ps, const traffic::DemandMatrix& dm,
                      std::span<const double> sig,
                      std::span<const double> pair_weight,
                      const LossConfig& cfg, std::vector<double>* grad_sig);

/// Back-propagates a gradient with respect to the split ratios through the
/// per-pair normalization r_p = s_p / sum(s): given dL/dr in `grad_r`,
/// writes dL/ds into `grad_sig`. The last step of figret_loss's gradient;
/// any loss built on the same sigmoid + normalize head can reuse it.
void chain_through_normalization(const PathSet& ps,
                                 std::span<const double> sig,
                                 const TeConfig& ratios,
                                 std::span<const double> grad_r,
                                 std::vector<double>& grad_sig);

}  // namespace figret::te
