#include "nn/adam.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "support/reference_kernels.h"
#include "util/rng.h"

namespace figret::nn {
namespace {

Mlp tiny_model(std::uint64_t seed = 1) {
  MlpConfig cfg;
  cfg.layer_sizes = {2, 8, 1};
  cfg.seed = seed;
  return Mlp(cfg);
}

TEST(Adam, StepMovesParametersAgainstGradient) {
  Mlp m = tiny_model();
  AdamConfig cfg;
  cfg.learning_rate = 0.01;
  Adam adam(m, cfg);

  MlpGradients g = m.make_gradients();
  // Positive gradient on one weight must decrease it.
  g.weight[0](0, 0) = 1.0;
  const double before = m.weights()[0](0, 0);
  adam.step(m, g);
  EXPECT_LT(m.weights()[0](0, 0), before);
  EXPECT_EQ(adam.steps_taken(), 1u);
}

TEST(Adam, ZeroGradientLeavesParametersUnchanged) {
  Mlp m = tiny_model();
  Adam adam(m);
  MlpGradients g = m.make_gradients();
  const double before = m.weights()[1](0, 3);
  adam.step(m, g);
  EXPECT_DOUBLE_EQ(m.weights()[1](0, 3), before);
}

TEST(Adam, FirstStepSizeApproxLearningRate) {
  // With bias correction, the first Adam step has magnitude ~lr regardless
  // of gradient scale.
  Mlp m = tiny_model();
  AdamConfig cfg;
  cfg.learning_rate = 0.05;
  Adam adam(m, cfg);
  MlpGradients g = m.make_gradients();
  g.weight[0](0, 0) = 1234.5;
  const double before = m.weights()[0](0, 0);
  adam.step(m, g);
  EXPECT_NEAR(before - m.weights()[0](0, 0), 0.05, 1e-6);
}

TEST(Adam, ClipNormBoundsUpdate) {
  Mlp m = tiny_model();
  AdamConfig cfg;
  cfg.learning_rate = 0.1;
  cfg.clip_norm = 1.0;
  Adam adam(m, cfg);
  MlpGradients g = m.make_gradients();
  for (auto& w : g.weight)
    for (double& v : w.flat()) v = 100.0;
  // Clipping rescales the gradient globally; updates stay ~lr in size.
  const double before = m.weights()[0](0, 0);
  adam.step(m, g);
  EXPECT_LE(std::abs(m.weights()[0](0, 0) - before), 0.11);
}

TEST(Adam, ConvergesOnLogisticRegression) {
  // Train y = sigmoid(2 x0 - 3 x2 + 0.5) with input 1 always zero, through
  // the active-input passes and step FigretScheme::fit runs; Adam must drive
  // the MSE near zero.
  MlpConfig mcfg;
  mcfg.layer_sizes = {3, 8, 1};
  mcfg.seed = 7;
  Mlp m(mcfg);
  AdamConfig cfg;
  cfg.learning_rate = 0.01;
  Adam adam(m, cfg);
  MlpGradients g = m.make_gradients();
  MlpBatchWorkspace ws;
  util::Rng rng(3);

  constexpr std::size_t kBatch = 8;
  const std::vector<std::size_t> active{0, 2};
  auto target = [](double a, double b) { return sigmoid(2.0 * a - 3.0 * b + 0.5); };
  linalg::Matrix x(kBatch, active.size()), dl(kBatch, 1);
  double final_loss = 1e300;
  for (int step = 0; step < 3000; ++step) {
    for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
    const linalg::Matrix& y = m.forward_batch(x, active, ws);
    double loss = 0.0;
    for (std::size_t k = 0; k < kBatch; ++k) {
      const double err = y(k, 0) - target(x(k, 0), x(k, 1));
      loss += 0.5 * err * err;
      dl(k, 0) = err / static_cast<double>(kBatch);
    }
    g.zero(active);
    m.backward_batch(x, active, ws, dl, g);
    adam.step(m, g, active);
    final_loss = loss / static_cast<double>(kBatch);
  }
  EXPECT_LT(final_loss, 1e-4);
}

TEST(Adam, RejectsInvalidConfig) {
  const Mlp m = tiny_model();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto with = [](auto edit) {
    AdamConfig cfg;
    edit(cfg);
    return cfg;
  };
  for (const double lr : {0.0, -1e-3, nan, inf})
    EXPECT_THROW(Adam(m, with([&](AdamConfig& c) { c.learning_rate = lr; })),
                 std::invalid_argument)
        << "learning rate " << lr;
  for (const double beta : {1.0, -0.1, 1.5, nan}) {
    EXPECT_THROW(Adam(m, with([&](AdamConfig& c) { c.beta1 = beta; })),
                 std::invalid_argument)
        << "beta1 " << beta;
    EXPECT_THROW(Adam(m, with([&](AdamConfig& c) { c.beta2 = beta; })),
                 std::invalid_argument)
        << "beta2 " << beta;
  }
  for (const double eps : {0.0, -1e-8, nan, inf})
    EXPECT_THROW(Adam(m, with([&](AdamConfig& c) { c.epsilon = eps; })),
                 std::invalid_argument)
        << "epsilon " << eps;
  for (const double clip : {nan, inf, -inf})
    EXPECT_THROW(Adam(m, with([&](AdamConfig& c) { c.clip_norm = clip; })),
                 std::invalid_argument)
        << "clip norm " << clip;
  // The edges that stay valid: beta 0, and a clip norm <= 0 (disabled).
  EXPECT_NO_THROW(Adam(m, with([](AdamConfig& c) {
                    c.beta1 = 0.0;
                    c.beta2 = 0.0;
                    c.clip_norm = -1.0;
                  })));
}

TEST(Adam, StepRejectsMismatchedShapes) {
  Mlp m = tiny_model();
  Adam adam(m);
  MlpConfig other;
  other.layer_sizes = {2, 9, 1};
  Mlp wider(other);
  MlpGradients g = m.make_gradients();
  EXPECT_THROW(adam.step(wider, g), std::invalid_argument);
  EXPECT_THROW(adam.step(m, wider.make_gradients()), std::invalid_argument);
  other.layer_sizes = {2, 8, 8, 1};
  Mlp deeper(other);
  EXPECT_THROW(adam.step(deeper, deeper.make_gradients()),
               std::invalid_argument);
  const std::vector<std::size_t> out_of_range{0, 2};
  EXPECT_THROW(adam.step(m, g, out_of_range), std::invalid_argument);
  EXPECT_EQ(adam.steps_taken(), 0u) << "a rejected step must not count";
  EXPECT_NO_THROW(adam.step(m, g));
}

TEST(Adam, ClipScaleIsTheSerialNormsOnBothSidesOfTheBound) {
  // The clip scale is that of one serial norm sum. A parallel sum with a
  // rounding bound proves a norm far below the clip norm unclipped without
  // it; a clip norm within a rounding of the norm (just below: the clip
  // binds; equal or just above: it does not), and a NaN or infinite
  // gradient, leave the decision to the serial sum. Each case must match
  // the serial reference bit for bit. 2000 inputs split the first layer
  // into several pool chunks.
  MlpConfig cfg;
  cfg.layer_sizes = {2000, 40, 9};
  cfg.seed = 13;
  const Mlp init(cfg);
  util::Rng rng(17);
  MlpGradients g = init.make_gradients();
  for (auto& w : g.weight)
    for (double& v : w.flat()) v = rng.uniform(-1e-3, 1e-3);
  for (auto& b : g.bias)
    for (double& v : b) v = rng.uniform(-1e-3, 1e-3);
  // The norm as the serial sum computes it, in parameter order.
  double norm_sq = 0.0;
  for (const auto& w : g.weight)
    for (double v : w.flat()) norm_sq += v * v;
  for (const auto& b : g.bias)
    for (double v : b) norm_sq += v * v;
  const double norm = std::sqrt(norm_sq);
  const double inf = std::numeric_limits<double>::infinity();

  const auto expect_matches_reference = [&](const MlpGradients& grads,
                                            double clip,
                                            const std::string& what) {
    Mlp fast = init;
    Mlp serial = init;
    AdamConfig acfg;
    acfg.learning_rate = 0.01;
    acfg.clip_norm = clip;
    Adam adam(fast, acfg);
    AdamReference reference(serial, acfg);
    for (int step = 0; step < 3; ++step) {
      adam.step(fast, grads);
      reference.step(serial, grads);
    }
    for (std::size_t l = 0; l < fast.num_layers(); ++l) {
      const auto a = fast.weights()[l].flat();
      const auto b = serial.weights()[l].flat();
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
          << what << ", layer " << l;
      EXPECT_EQ(std::memcmp(fast.biases()[l].data(), serial.biases()[l].data(),
                            fast.biases()[l].size() * sizeof(double)),
                0)
          << what << ", layer " << l;
    }
  };
  expect_matches_reference(g, norm * 1e3, "clip far above the norm");
  expect_matches_reference(g, norm * 2.0, "clip twice the norm");
  expect_matches_reference(g, std::nextafter(norm, 0.0), "clip just below");
  expect_matches_reference(g, norm, "clip equal to the norm");
  expect_matches_reference(g, std::nextafter(norm, inf), "clip just above");
  expect_matches_reference(g, norm * 0.5, "clip binding");
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf}) {
    MlpGradients broken = g;
    broken.weight[1](3, 5) = bad;
    expect_matches_reference(broken, norm * 1e3, "gradient " + std::to_string(bad));
  }
}

TEST(Adam, ActiveInputStepMatchesFullStepBitForBit) {
  // First-layer columns whose gradient is always zero keep zero moments, so
  // skipping them (and their +0 share of the clip norm) changes nothing.
  MlpConfig cfg;
  cfg.layer_sizes = {12, 6, 3};
  cfg.seed = 5;
  Mlp full(cfg);
  Mlp restricted(cfg);
  AdamConfig acfg;
  acfg.learning_rate = 0.05;
  acfg.clip_norm = 0.5;  // binds on some steps
  Adam adam_full(full, acfg);
  Adam adam_restricted(restricted, acfg);
  const std::vector<std::size_t> active{1, 4, 5, 11};
  util::Rng rng(9);
  MlpGradients g = full.make_gradients();
  for (int step = 0; step < 20; ++step) {
    g.zero();
    for (std::size_t r = 0; r < g.weight[0].rows(); ++r)
      for (std::size_t c : active) g.weight[0](r, c) = rng.uniform(-1.0, 1.0);
    for (std::size_t l = 1; l < g.weight.size(); ++l)
      for (double& v : g.weight[l].flat()) v = rng.uniform(-1.0, 1.0);
    for (auto& b : g.bias)
      for (double& v : b) v = rng.uniform(-0.5, 0.5);
    adam_full.step(full, g);
    adam_restricted.step(restricted, g, active);
  }
  for (std::size_t l = 0; l < full.num_layers(); ++l) {
    const auto a = full.weights()[l].flat();
    const auto b = restricted.weights()[l].flat();
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "layer " << l;
    EXPECT_EQ(full.biases()[l], restricted.biases()[l]) << "layer " << l;
  }
}

}  // namespace
}  // namespace figret::nn
