// FIGRET — the paper's contribution (§4): a deep neural network that maps a
// window of historical demand matrices {D_{t-H}, ..., D_{t-1}} directly to a
// TE configuration R_t, trained end-to-end with the burst-aware loss
//
//   L = M(R_t, D_t) + robust_weight * sum_sd var_sd * S^max_sd   (Eq. 7 + 8)
//
// With robust_weight = 0 the very same pipeline is DOTE [36], the paper's
// strongest baseline, and with a one-snapshot window trained against that
// same snapshot it is the TEAL-like baseline: dote_options() and
// teal_options() give those configurations.
//
// Architecture (Appendix D.4): fully connected, five hidden layers of 128
// ReLU units, sigmoid output head, per-pair normalization to recover valid
// split ratios, Adam optimizer.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/adam.h"
#include "nn/mlp.h"
#include "te/loss.h"
#include "te/scheme.h"

namespace figret::te {

struct FigretOptions {
  /// Temporal window H (paper uses 12 for the Fig 4 analysis).
  std::size_t history = 12;
  /// Hidden layer widths (Appendix D.4: five layers of 128).
  std::vector<std::size_t> hidden = {128, 128, 128, 128, 128};
  std::size_t epochs = 12;
  std::size_t batch_size = 16;
  double learning_rate = 1e-3;
  /// Weight of the fine-grained robustness loss term; 0 => DOTE.
  double robust_weight = 1.0;
  /// Global-norm gradient clip (0 disables).
  double clip_norm = 5.0;
  std::uint64_t seed = 42;
  /// How far the training target lies past the input window: sample t
  /// trains on {D_{t-lag-H+1}, ..., D_{t-lag}} against D_t. 1 predicts the
  /// next snapshot; 0 trains against the window's last snapshot.
  std::size_t target_lag = 1;
};

/// DOTE is FIGRET without the robustness term (§5.1 baseline 6).
FigretOptions dote_options(FigretOptions base = {});

/// The TEAL-like baseline (§5.1 baseline 7): history 1, no robustness term,
/// target lag 0; every other field comes from `base`.
///
/// TEAL [52] learns a fast mapping from *a given traffic demand* to a network
/// configuration tailored for that demand (GNN + RL in the original). The
/// paper's experiments note that, lacking knowledge of future traffic, "we
/// apply the TE solution computed from the traffic demand of the preceding
/// time snapshot to the next time snapshot" — which is precisely why TEAL
/// degrades under unexpected bursts (Fig 5).
///
/// Substitution: the fully connected network is trained with the pure-MLU
/// loss where input and target are the *same* snapshot (demand ->
/// configuration for that demand), replacing the GNN+RL machinery with direct
/// gradient descent. The behaviourally relevant property (a configuration
/// tailored to the observed demand, reused on the next snapshot) is
/// identical: advise() reads only the last snapshot.
FigretOptions teal_options(FigretOptions base = {});

class FigretScheme final : public TeScheme {
 public:
  FigretScheme(const PathSet& ps, const FigretOptions& opt = {},
               std::string name = "FIGRET");

  std::string name() const override { return name_; }
  void fit(const traffic::TrafficTrace& train) override;
  TeConfig advise(std::span<const traffic::DemandMatrix> history) override;
  /// Serving-loop hot path: advise_batch_into for one history.
  void advise_into(std::span<const traffic::DemandMatrix> history,
                   TeConfig& out) override;
  /// One forward pass per kMaxBatch histories, with every buffer (active
  /// input rows, MLP workspace, output ratios) reused across calls — zero
  /// allocations once the outputs reach capacity. The first layer reads
  /// only the weight rows of inputs nonzero in some history, once per pass
  /// (nn::Mlp::forward_sparse).
  ///
  /// Output-sparse contract. A history *refreshes* pair p when some
  /// snapshot of its window holds a nonzero demand for p. A refreshed pair
  /// is served bit for bit the ratios of model().forward() on the dense
  /// input; the forward computes only the output columns of refreshed
  /// pairs. Every other pair is served the ratios of the all-zero window
  /// (fixed per model). So each result depends only on the model and its
  /// own window, never on its batch-mates or earlier calls, and equals
  /// advise_into on that history alone. A window where every pair is
  /// refreshed (dense traffic) runs the full output layer.
  void advise_batch_into(
      std::span<const std::span<const traffic::DemandMatrix>> histories,
      std::span<TeConfig> outs) override;
  std::size_t history_window() const override { return opt_.history; }

  /// Per-pair robustness weights (training variance / squared demand scale)
  /// — the quantity Fig 8 plots sensitivities against.
  const std::vector<double>& pair_weights() const noexcept {
    return pair_weights_;
  }
  /// Mean training loss of the final epoch (monitoring / tests).
  double final_epoch_loss() const noexcept { return final_epoch_loss_; }
  /// Global divisor applied to every demand before it enters the model.
  double input_scale() const noexcept { return input_scale_; }
  const nn::Mlp& model() const;

  /// Persists the full trained state (model, input scale, pair weights) so
  /// a controller can ship without retraining (§6: retraining is rare).
  /// save() requires a fitted scheme; load() replaces the current state and
  /// validates the checkpoint against this scheme's PathSet dimensions and
  /// rejects a non-finite or non-positive input scale.
  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;
  void load(std::istream& is);
  void load_file(const std::string& path);

 private:
  /// The model input for the last history_window() snapshots as its
  /// nonzero entries, (index, value) with index ascending: O(nnz) per
  /// snapshot, stored zeros skipped.
  /// Inputs are divided by `scale`.
  void gather_input(std::span<const traffic::DemandMatrix> history,
                    double scale, std::vector<std::size_t>& index,
                    std::vector<double>& value) const;
  /// The one place the trained state (model, input scale, pair weights) is
  /// assigned: also rebuilds the transposed first layer advise_into() reads,
  /// so the two can never disagree, and changes nothing if it throws.
  void install_model(nn::Mlp model, double input_scale,
                     std::vector<double> pair_weights);

  const PathSet* ps_;
  FigretOptions opt_;
  std::string name_;
  std::vector<double> pair_weights_;
  double input_scale_ = 1.0;
  double final_epoch_loss_ = 0.0;
  std::unique_ptr<nn::Mlp> model_;
  /// model_->weights()[0] transposed ([input x hidden]).
  linalg::Matrix w0_t_;
  /// advise_batch_into() scratch: the MLP workspace and one active-input
  /// row per batch slot, all sized in install_model for kMaxBatch rows.
  struct ActiveInput {
    std::vector<std::size_t> index;
    std::vector<double> value;
    /// The pairs this row refreshes: those with an input in its window.
    std::vector<std::uint32_t> pairs;
  };
  nn::MlpBatchWorkspace ws_;
  std::array<ActiveInput, kMaxBatch> active_;
  std::array<linalg::SparseRow, kMaxBatch> rows_;
  static_assert(kMaxBatch <= 8, "pair_rows_ holds one bit per batch row");
  /// Per pair, one bit per batch row that refreshes it; all zero between
  /// calls.
  std::vector<std::uint8_t> pair_rows_;
  /// The pairs some row of the pass refreshes, and their paths as merged
  /// runs: the output columns the forward computes.
  std::vector<std::uint32_t> refreshed_;
  std::vector<nn::OutputRun> runs_;
  /// The ratios of the all-zero window, served for every pair a row does
  /// not refresh. Derived from the model in install_model, never persisted.
  TeConfig idle_;
};

}  // namespace figret::te
