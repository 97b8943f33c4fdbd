#include "te/figret.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "nn/serialize.h"
#include "traffic/stats.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace figret::te {

FigretOptions dote_options(FigretOptions base) {
  base.robust_weight = 0.0;
  return base;
}

FigretOptions teal_options(FigretOptions base) {
  base.history = 1;
  base.robust_weight = 0.0;
  base.target_lag = 0;
  return base;
}

FigretScheme::FigretScheme(const PathSet& ps, const FigretOptions& opt,
                           std::string name)
    : ps_(&ps), opt_(opt), name_(std::move(name)) {
  if (opt_.history == 0)
    throw std::invalid_argument("FigretScheme: history must be >= 1");
  if (opt_.batch_size == 0)
    throw std::invalid_argument("FigretScheme: batch_size must be >= 1");
}

const nn::Mlp& FigretScheme::model() const {
  if (!model_) throw std::logic_error("FigretScheme: model() before fit()");
  return *model_;
}

std::span<const std::size_t> FigretScheme::gather_input(
    std::span<const traffic::DemandMatrix> history, double scale,
    std::span<const std::size_t> all, std::vector<std::size_t>& index,
    std::vector<double>& value) const {
  const std::size_t pairs = ps_->num_pairs();
  if (history.size() < opt_.history)
    throw std::invalid_argument("FigretScheme: history shorter than window");
  index.clear();
  value.clear();
  // Most recent snapshot last, matching training layout; pairs ascend within
  // a snapshot, so the indices h * pairs + p ascend overall. While they run
  // 0, 1, 2, ... they stay implicit, a prefix of `all`; the first gap
  // writes that prefix out and every index after it.
  const std::size_t offset = history.size() - opt_.history;
  for (std::size_t h = 0; h < opt_.history; ++h) {
    const auto& dm = history[offset + h];
    if (dm.size() != pairs)
      throw std::invalid_argument("FigretScheme: demand size mismatch");
    // A dense snapshot without a zero continues the implicit run by all its
    // pairs: one branch-free (vectorizable) pass divides its values.
    if (!dm.is_sparse() && index.empty() && value.size() == h * pairs) {
      const std::span<const double> d = dm.values();
      if (std::find(d.begin(), d.end(), 0.0) == d.end()) {
        value.resize(value.size() + pairs);
        double* out = value.data() + h * pairs;
        for (std::size_t p = 0; p < pairs; ++p) out[p] = d[p] / scale;
        continue;
      }
    }
    dm.for_each_active([&](std::size_t p, double v) {
      if (v == 0.0) return;
      const std::size_t i = h * pairs + p;
      if (!index.empty() || i != value.size()) {
        if (index.empty()) index.assign(all.begin(), all.begin() + value.size());
        index.push_back(i);
      }
      value.push_back(v / scale);
    });
  }
  if (index.empty()) return all.first(value.size());
  return index;
}

void FigretScheme::install_model(nn::Mlp model, double input_scale,
                                 std::vector<double> pair_weights) {
  // Everything that can throw runs before the first member changes.
  auto fresh = std::make_unique<nn::Mlp>(std::move(model));
  linalg::Matrix w0_t = fresh->weights().front().transposed();
  nn::MlpBatchWorkspace ws;
  fresh->reserve(ws, kMaxBatch);
  // The ratios of the all-zero window: what every pair without input in
  // its window is served.
  const linalg::SparseRow none{};
  TeConfig idle;
  ratios_from_sigmoid_into(
      *ps_, fresh->forward_sparse(std::span(&none, 1), w0_t, ws).row(0), idle);
  std::vector<std::size_t> all(fresh->input_size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  for (ActiveInput& row : active_) {
    row.index.reserve(fresh->input_size());
    row.value.reserve(fresh->input_size());
    row.pairs.reserve(ps_->num_pairs());
  }
  pair_rows_.assign(ps_->num_pairs(), 0);
  refreshed_.reserve(ps_->num_pairs());
  runs_.reserve(ps_->num_pairs());
  model_ = std::move(fresh);
  w0_t_ = std::move(w0_t);
  all_inputs_ = std::move(all);
  ws_ = std::move(ws);
  idle_ = std::move(idle);
  input_scale_ = input_scale;
  pair_weights_ = std::move(pair_weights);
}

void FigretScheme::fit(const traffic::TrafficTrace& train) {
  const std::size_t pairs = ps_->num_pairs();
  if (train.num_nodes != ps_->num_nodes())
    throw std::invalid_argument("FigretScheme: trace/topology mismatch");
  // Every snapshot is checked before any work: a wrong-sized one would
  // otherwise surface partway through, or (a smaller one) be read out of
  // bounds by pair_variances.
  for (const auto& dm : train.snapshots)
    if (dm.num_nodes() != ps_->num_nodes())
      throw std::invalid_argument(
          "FigretScheme: snapshot size does not match topology");
  if (train.size() <= opt_.history + opt_.target_lag - 1)
    throw std::invalid_argument("FigretScheme: training trace too short");

  // The new state is built in locals and committed by install_model only
  // once training has succeeded: a failed fit leaves the old model serving.
  // Input scale: a single global constant so the DNN sees O(1) inputs.
  double scale = 1e-12;
  for (const auto& dm : train.snapshots) scale = std::max(scale, dm.max_value());

  // Robustness weights: per-pair demand variance over the training period
  // (Eq. 8's sigma^2_{D_sd,[1-T]}), divided by the squared demand scale so
  // the L2 term is invariant to traffic units. Raw variances keep the
  // paper's fine-grained property: on stable traces every weight is tiny and
  // FIGRET's loss degenerates to DOTE's; on bursty traces only the genuinely
  // bursty pairs receive a meaningful sensitivity penalty.
  std::vector<double> weights = traffic::pair_variances(train);
  for (double& w : weights) w /= scale * scale;

  nn::MlpConfig mcfg;
  mcfg.layer_sizes.push_back(opt_.history * pairs);
  for (std::size_t h : opt_.hidden) mcfg.layer_sizes.push_back(h);
  mcfg.layer_sizes.push_back(ps_->num_paths());
  mcfg.seed = opt_.seed;
  nn::Mlp model(mcfg);

  nn::AdamConfig acfg;
  acfg.learning_rate = opt_.learning_rate;
  acfg.clip_norm = opt_.clip_norm;
  nn::Adam adam(model, acfg);
  nn::MlpGradients grads = model.make_gradients();

  const LossConfig lcfg{opt_.robust_weight};
  util::Rng rng(opt_.seed ^ 0xF16A2Eu);

  // Sample t trains on {D_{t-lag-H+1}, ..., D_{t-lag}} against D_t.
  const std::size_t first = opt_.history + opt_.target_lag - 1;
  std::vector<std::size_t> samples;
  for (std::size_t t = first; t < train.size(); ++t) samples.push_back(t);
  const auto window = [&](std::size_t t) {
    return std::span<const traffic::DemandMatrix>(
        train.snapshots.data() + (t - first), opt_.history);
  };

  // The first layer trains only on the inputs that are nonzero in some
  // sample. Every other input column has an exactly zero gradient at every
  // step, so forward, backward and Adam skip it (the active-input forms of
  // nn::Mlp and nn::Adam), bit-identical to the full-width passes. slot[i]
  // is input i's column in the minibatch matrix.
  const std::size_t in_dim = opt_.history * pairs;
  constexpr std::size_t kInactive = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> index;
  std::vector<double> value;
  std::vector<std::size_t> slot(in_dim, kInactive);
  std::vector<std::size_t> all(in_dim);
  std::iota(all.begin(), all.end(), std::size_t{0});
  for (std::size_t t : samples)
    for (std::size_t i : gather_input(window(t), scale, all, index, value))
      slot[i] = 0;
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < in_dim; ++i)
    if (slot[i] != kInactive) {
      slot[i] = active.size();
      active.push_back(i);
    }

  // Minibatches run through the batched forward/backward, on buffers reused
  // across steps.
  linalg::Matrix x;
  linalg::Matrix dl;
  std::vector<std::vector<double>> grad_sig(opt_.batch_size);
  std::vector<LossScratch> loss_scratch(opt_.batch_size);
  std::vector<double> sample_loss(opt_.batch_size, 0.0);
  nn::MlpBatchWorkspace bws;
  const double inv = 1.0 / static_cast<double>(opt_.batch_size);
  double final_loss = final_epoch_loss_;
  for (std::size_t epoch = 0; epoch < opt_.epochs; ++epoch) {
    // Shuffle sample order each epoch (stochastic minibatch SGD).
    const auto perm = rng.permutation(samples.size());
    double epoch_loss = 0.0;
    for (std::size_t k0 = 0; k0 < samples.size(); k0 += opt_.batch_size) {
      const std::size_t k1 =
          std::min(samples.size(), k0 + opt_.batch_size);
      const std::size_t batch = k1 - k0;

      x.reset(batch, active.size());
      for (std::size_t b = 0; b < batch; ++b) {
        const std::span<const std::size_t> in =
            gather_input(window(samples[perm[k0 + b]]), scale, all, index,
                         value);
        const std::span<double> row = x.row(b);
        for (std::size_t i = 0; i < in.size(); ++i)
          row[slot[in[i]]] = value[i];
      }

      const linalg::Matrix& sig = model.forward_batch(x, active, bws);
      dl.reset(batch, ps_->num_paths());
      // The samples' losses are independent: one pool task each, on its own
      // reused scratch, summed below in sample order.
      util::parallel_for(0, batch, [&](std::size_t b) {
        const std::size_t t = samples[perm[k0 + b]];
        sample_loss[b] = figret_loss(*ps_, train[t], sig.row(b), weights,
                                     lcfg, &grad_sig[b], loss_scratch[b])
                             .total;
        // Average gradients across the minibatch.
        const std::span<double> row = dl.row(b);
        for (std::size_t j = 0; j < row.size(); ++j)
          row[j] = grad_sig[b][j] * inv;
      });
      for (std::size_t b = 0; b < batch; ++b) epoch_loss += sample_loss[b];

      grads.zero(active);
      model.backward_batch(x, active, bws, dl, grads);
      adam.step(model, grads, active);
    }
    final_loss = epoch_loss / static_cast<double>(samples.size());
  }
  install_model(std::move(model), scale, std::move(weights));
  final_epoch_loss_ = final_loss;
}

TeConfig FigretScheme::advise(
    std::span<const traffic::DemandMatrix> history) {
  TeConfig out;
  advise_into(history, out);
  return out;
}

void FigretScheme::advise_into(std::span<const traffic::DemandMatrix> history,
                               TeConfig& out) {
  advise_batch_into(std::span(&history, 1), std::span(&out, 1));
}

void FigretScheme::advise_batch_into(
    std::span<const std::span<const traffic::DemandMatrix>> histories,
    std::span<TeConfig> outs) {
  if (!model_) throw std::logic_error("FigretScheme: advise() before fit()");
  if (histories.size() != outs.size())
    throw std::invalid_argument(
        "FigretScheme: histories and outputs differ in length");
  const std::size_t pairs = ps_->num_pairs();
  for (std::size_t b0 = 0; b0 < histories.size(); b0 += kMaxBatch) {
    const std::size_t n = std::min(kMaxBatch, histories.size() - b0);
    for (std::size_t b = 0; b < n; ++b) {
      ActiveInput& in = active_[b];
      rows_[b] = {gather_input(histories[b0 + b], input_scale_, all_inputs_,
                               in.index, in.value),
                  in.value};
    }
    // Row b refreshes the pairs with an input in its window; pair_rows_[p]
    // has bit b set while row b refreshes p. The forward computes the paths
    // of every pair some row refreshes (refreshed_), as merged runs.
    refreshed_.clear();
    for (std::size_t b = 0; b < n; ++b) {
      ActiveInput& in = active_[b];
      const auto bit = static_cast<std::uint8_t>(1u << b);
      in.pairs.clear();
      // Input i is snapshot h's pair i - h * pairs; the indices ascend, so
      // h only grows (no division per input).
      std::size_t base = 0;
      for (const std::size_t i : rows_[b].index) {
        while (i >= base + pairs) base += pairs;
        const auto p = static_cast<std::uint32_t>(i - base);
        if (pair_rows_[p] & bit) continue;
        if (pair_rows_[p] == 0) refreshed_.push_back(p);
        pair_rows_[p] |= bit;
        in.pairs.push_back(p);
        if (in.pairs.size() == pairs) break;  // every pair refreshed
      }
    }
    runs_.clear();
    if (refreshed_.size() == pairs) {
      // Dense traffic: the whole output layer, as one run.
      std::fill(pair_rows_.begin(), pair_rows_.end(), 0);
      runs_.push_back({0, ps_->num_paths()});
    } else {
      std::sort(refreshed_.begin(), refreshed_.end());
      for (const std::uint32_t p : refreshed_) {
        pair_rows_[p] = 0;
        const std::size_t begin = ps_->pair_begin(p);
        const std::size_t end = ps_->pair_end(p);
        if (!runs_.empty() && runs_.back().end == begin)
          runs_.back().end = end;
        else
          runs_.push_back({begin, end});
      }
    }
    const linalg::Matrix* sig = nullptr;
    if (!runs_.empty())
      sig = &model_->forward_sparse(std::span(rows_.data(), n), w0_t_, ws_,
                                    runs_);
    for (std::size_t b = 0; b < n; ++b) {
      const std::vector<std::uint32_t>& refreshed = active_[b].pairs;
      TeConfig& out = outs[b0 + b];
      if (refreshed.size() == pairs) {
        ratios_from_sigmoid_into(*ps_, sig->row(b), out);
        continue;
      }
      out.assign(idle_.begin(), idle_.end());
      if (!refreshed.empty())
        ratios_from_sigmoid_into(*ps_, sig->row(b), refreshed, out);
    }
  }
}

namespace {

constexpr char kSchemeMagic[4] = {'F', 'G', 'R', 'S'};

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw std::runtime_error("FigretScheme::load: truncated input");
  return v;
}

}  // namespace

void FigretScheme::save(std::ostream& os) const {
  if (!model_) throw std::logic_error("FigretScheme::save: not fitted");
  os.write(kSchemeMagic, sizeof kSchemeMagic);
  write_pod<std::uint32_t>(os, 1);  // version
  write_pod<std::uint64_t>(os, opt_.history);
  write_pod<double>(os, input_scale_);
  write_pod<std::uint64_t>(os, pair_weights_.size());
  os.write(reinterpret_cast<const char*>(pair_weights_.data()),
           static_cast<std::streamsize>(pair_weights_.size() *
                                        sizeof(double)));
  nn::save_mlp(*model_, os);
  if (!os) throw std::runtime_error("FigretScheme::save: write failure");
}

void FigretScheme::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out)
    throw std::runtime_error("FigretScheme::save_file: cannot open " + path);
  save(out);
}

void FigretScheme::load(std::istream& is) {
  char magic[4] = {};
  is.read(magic, sizeof magic);
  if (!is || std::string(magic, 4) != std::string(kSchemeMagic, 4))
    throw std::runtime_error("FigretScheme::load: bad magic");
  if (read_pod<std::uint32_t>(is) != 1)
    throw std::runtime_error("FigretScheme::load: unsupported version");
  const auto history = static_cast<std::size_t>(read_pod<std::uint64_t>(is));
  const double scale = read_pod<double>(is);
  // A NaN, infinite or non-positive scale would turn every input into NaN
  // (or inf) and every served split with it.
  if (!std::isfinite(scale) || scale <= 0.0)
    throw std::runtime_error("FigretScheme::load: invalid input scale");
  const auto n_weights = static_cast<std::size_t>(read_pod<std::uint64_t>(is));
  if (n_weights != ps_->num_pairs())
    throw std::runtime_error(
        "FigretScheme::load: checkpoint pair count does not match topology");
  std::vector<double> weights(n_weights, 0.0);
  is.read(reinterpret_cast<char*>(weights.data()),
          static_cast<std::streamsize>(n_weights * sizeof(double)));
  if (!is) throw std::runtime_error("FigretScheme::load: truncated weights");

  nn::Mlp loaded = nn::load_mlp(is);
  if (loaded.input_size() != history * ps_->num_pairs() ||
      loaded.output_size() != ps_->num_paths())
    throw std::runtime_error(
        "FigretScheme::load: model dimensions do not match topology");

  install_model(std::move(loaded), scale, std::move(weights));
  opt_.history = history;
}

void FigretScheme::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("FigretScheme::load_file: cannot open " + path);
  load(in);
}

}  // namespace figret::te
