#include "nn/adam.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/parallel.h"

namespace figret::nn {
namespace {

// Parameters per pool task: a fixed count, never derived from the pool
// width. The update is elementwise, so the cut cannot change a value.
constexpr std::size_t kChunkParams = std::size_t{1} << 14;

// One parameter's update. Everything it reads besides the parameter and
// its moments is a member, so a loop over a local copy keeps them in
// registers.
struct Update {
  double learning_rate, beta1, beta2, epsilon, scale, bc1, bc2;

  void operator()(double& param, double grad, double& m,
                  double& v) const noexcept {
    grad *= scale;
    m = beta1 * m + (1.0 - beta1) * grad;
    v = beta2 * v + (1.0 - beta2) * grad * grad;
    const double mhat = m / bc1;
    const double vhat = v / bc2;
    param -= learning_rate * mhat / (std::sqrt(vhat) + epsilon);
  }
};

bool same_shape(const std::vector<linalg::Matrix>& weight,
                const std::vector<std::vector<double>>& bias,
                const MlpGradients& like) {
  if (weight.size() != like.weight.size() || bias.size() != like.bias.size())
    return false;
  for (std::size_t l = 0; l < weight.size(); ++l)
    if (weight[l].rows() != like.weight[l].rows() ||
        weight[l].cols() != like.weight[l].cols() ||
        bias[l].size() != like.bias[l].size())
      return false;
  return true;
}

}  // namespace

Adam::Adam(const Mlp& model, const AdamConfig& config)
    : cfg_(config), m_(model.make_gradients()), v_(model.make_gradients()) {
  std::size_t rows = 0;
  for (const linalg::Matrix& w : model.weights()) rows += w.rows();
  row_sq_.assign(rows, 0.0);
  if (!std::isfinite(cfg_.learning_rate) || cfg_.learning_rate <= 0.0)
    throw std::invalid_argument("Adam: learning rate must be finite and > 0");
  if (!(cfg_.beta1 >= 0.0 && cfg_.beta1 < 1.0) ||
      !(cfg_.beta2 >= 0.0 && cfg_.beta2 < 1.0))
    throw std::invalid_argument("Adam: beta1 and beta2 must be in [0, 1)");
  if (!std::isfinite(cfg_.epsilon) || cfg_.epsilon <= 0.0)
    throw std::invalid_argument("Adam: epsilon must be finite and > 0");
  if (!std::isfinite(cfg_.clip_norm))
    throw std::invalid_argument("Adam: clip norm must be finite");
}

bool Adam::clip_cannot_bind(const MlpGradients& grads,
                            const std::span<const std::size_t>* active) {
  // Each weight row's squares (and its bias's) are summed in four chains,
  // in fixed chunks of rows on the pool, and the row sums then serially.
  std::size_t terms = 0;
  std::size_t first = 0;  // the layer's first slot in row_sq_
  for (std::size_t l = 0; l < grads.weight.size(); ++l) {
    const linalg::Matrix& gw = grads.weight[l];
    const std::vector<double>& gb = grads.bias[l];
    const bool sparse = l == 0 && active != nullptr;
    const std::size_t width = sparse ? active->size() : gw.cols();
    terms += gw.rows() * (width + 1);
    util::parallel_for_ranges(
        gw.rows(), kChunkParams / std::max<std::size_t>(1, width),
        [&](std::size_t r0, std::size_t r1) {
          // The squares of gr[col(i)], i < width, in four chains.
          const auto sum_sq = [width](const double* gr, auto col) {
            double c[4] = {0.0, 0.0, 0.0, 0.0};
            std::size_t i = 0;
            for (; i + 4 <= width; i += 4)
              for (std::size_t j = 0; j < 4; ++j)
                c[j] += gr[col(i + j)] * gr[col(i + j)];
            for (; i < width; ++i) c[0] += gr[col(i)] * gr[col(i)];
            return (c[0] + c[1]) + (c[2] + c[3]);
          };
          for (std::size_t r = r0; r < r1; ++r) {
            const double* gr = gw.row(r).data();
            row_sq_[first + r] =
                gb[r] * gb[r] +
                (sparse ? sum_sq(gr, [&](std::size_t i) { return (*active)[i]; })
                        : sum_sq(gr, [](std::size_t i) { return i; }));
          }
        });
    first += gw.rows();
  }
  double sum = 0.0;
  for (std::size_t r = 0; r < first; ++r) sum += row_sq_[r];
  // Any order of summing n non-negative rounded squares, the serial chain's
  // included, lands within a factor 1 +- gamma_n of the exact sum, gamma_n
  // = nu / (1 - nu) (u the unit roundoff), plus at most n * denorm_min
  // where terms underflow. For nu <= 0.1 the serial sum is therefore at
  // most sum * (1 + 2.6 nu) + 2n denorm_min; the factor below keeps more
  // slack than that, covering its own rounding too. sqrt and rounding are
  // monotone, so if the bound's root is within clip_norm, so is the serial
  // norm. A NaN or infinite sum fails the test.
  constexpr double u = std::numeric_limits<double>::epsilon() / 2;
  const auto n = static_cast<double>(terms);
  if (n * u > 0.1) return false;
  const double bound = sum * (1.0 + 4.0 * (n + 2.0) * u) +
                       4.0 * (n + 1.0) * std::numeric_limits<double>::denorm_min();
  return std::sqrt(bound) <= cfg_.clip_norm;
}

void Adam::step(Mlp& model, const MlpGradients& grads) {
  update(model, grads, nullptr);
}

void Adam::step(Mlp& model, const MlpGradients& grads,
                std::span<const std::size_t> active_inputs) {
  update(model, grads, &active_inputs);
}

void Adam::update(Mlp& model, const MlpGradients& grads,
                  const std::span<const std::size_t>* active) {
  if (!same_shape(model.weights(), model.biases(), m_))
    throw std::invalid_argument("Adam::step: model shape mismatch");
  if (!same_shape(grads.weight, grads.bias, m_))
    throw std::invalid_argument("Adam::step: gradient shape mismatch");
  if (active != nullptr)
    linalg::check_indices(*active, model.input_size(), "Adam::step");

  ++t_;
  const double bc1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));

  // Global gradient norm, summed serially in parameter order (every weight,
  // layer by layer, row-major, then every bias). Skipped first-layer columns
  // hold zero gradients, whose terms would add +0. The serial chain runs
  // only when a parallel sum cannot prove that the clip leaves the step
  // alone.
  double scale = 1.0;
  if (cfg_.clip_norm > 0.0 && !clip_cannot_bind(grads, active)) {
    double norm_sq = 0.0;
    for (std::size_t l = 0; l < grads.weight.size(); ++l) {
      const linalg::Matrix& gw = grads.weight[l];
      if (l == 0 && active != nullptr) {
        for (std::size_t r = 0; r < gw.rows(); ++r) {
          const std::span<const double> row = gw.row(r);
          for (std::size_t c : *active) norm_sq += row[c] * row[c];
        }
      } else {
        for (double g : gw.flat()) norm_sq += g * g;
      }
    }
    for (const auto& gb : grads.bias)
      for (double g : gb) norm_sq += g * g;
    const double norm = std::sqrt(norm_sq);
    if (norm > cfg_.clip_norm) scale = cfg_.clip_norm / norm;
  }

  const Update apply{cfg_.learning_rate, cfg_.beta1, cfg_.beta2, cfg_.epsilon,
                     scale, bc1, bc2};
  for (std::size_t l = 0; l < grads.weight.size(); ++l) {
    linalg::Matrix& w = model.weights()[l];
    const linalg::Matrix& gw = grads.weight[l];
    linalg::Matrix& mw = m_.weight[l];
    linalg::Matrix& vw = v_.weight[l];
    std::vector<double>& b = model.biases()[l];
    const std::vector<double>& gb = grads.bias[l];
    std::vector<double>& mb = m_.bias[l];
    std::vector<double>& vb = v_.bias[l];
    const bool sparse = l == 0 && active != nullptr;
    const std::size_t width = sparse ? active->size() : w.cols();
    util::parallel_for_ranges(
        w.rows(), kChunkParams / std::max<std::size_t>(1, width),
        [&](std::size_t r0, std::size_t r1) {
          const Update u = apply;  // a local copy the stores cannot alias
          for (std::size_t r = r0; r < r1; ++r) {
            double* wr = w.row(r).data();
            const double* gr = gw.row(r).data();
            double* mr = mw.row(r).data();
            double* vr = vw.row(r).data();
            if (sparse) {
              for (std::size_t c : *active) u(wr[c], gr[c], mr[c], vr[c]);
            } else {
              for (std::size_t c = 0; c < width; ++c)
                u(wr[c], gr[c], mr[c], vr[c]);
            }
            u(b[r], gb[r], mb[r], vb[r]);
          }
        });
  }
}

}  // namespace figret::nn
