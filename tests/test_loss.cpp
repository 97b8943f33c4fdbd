// FIGRET loss tests: value decomposition against hand computations and
// finite-difference verification of the analytic sub-gradient.
#include "te/loss.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "net/topology.h"
#include "net/yen.h"
#include "te/mlu.h"
#include "util/rng.h"

namespace figret::te {
namespace {

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

TEST(RatiosFromSigmoid, ProducesValidConfig) {
  const PathSet ps = mesh_pathset(4);
  util::Rng rng(1);
  std::vector<double> sig(ps.num_paths());
  for (auto& s : sig) s = rng.uniform(0.05, 0.95);
  const TeConfig cfg = ratios_from_sigmoid(ps, sig);
  EXPECT_TRUE(valid_config(ps, cfg));
}

TEST(RatiosFromSigmoid, ProportionalWithinPair) {
  const PathSet ps = mesh_pathset(4);  // 3 candidate paths per pair
  std::vector<double> sig(ps.num_paths(), 0.25);
  const std::size_t b = ps.pair_begin(0);
  sig[b] = 0.5;
  sig[b + 1] = 0.25;
  sig[b + 2] = 0.25;
  const TeConfig cfg = ratios_from_sigmoid(ps, sig);
  EXPECT_NEAR(cfg[b], 0.5, 1e-12);
  EXPECT_NEAR(cfg[b + 1], 0.25, 1e-12);
}

TEST(FigretLoss, MluComponentMatchesDirectEvaluation) {
  const PathSet ps = mesh_pathset(4);
  util::Rng rng(3);
  std::vector<double> sig(ps.num_paths());
  for (auto& s : sig) s = rng.uniform(0.1, 0.9);
  traffic::DemandMatrix dm(4);
  for (std::size_t p = 0; p < dm.size(); ++p) dm[p] = rng.uniform(0.1, 1.0);
  const std::vector<double> w(ps.num_pairs(), 0.0);

  const LossValue lv = figret_loss(ps, dm, sig, w, LossConfig{0.0}, nullptr);
  const TeConfig cfg = ratios_from_sigmoid(ps, sig);
  EXPECT_NEAR(lv.mlu, mlu(ps, dm, cfg), 1e-12);
  EXPECT_DOUBLE_EQ(lv.robust, 0.0);
  EXPECT_NEAR(lv.total, lv.mlu, 1e-12);
}

TEST(FigretLoss, RobustComponentMatchesHandComputation) {
  const PathSet ps = mesh_pathset(4);
  std::vector<double> sig(ps.num_paths(), 0.5);  // uniform ratios 1/3
  traffic::DemandMatrix dm(4, 0.0);
  std::vector<double> w(ps.num_pairs(), 0.0);
  w[0] = 1.0;
  w[1] = 0.5;
  const LossConfig cfg{2.0};
  const LossValue lv = figret_loss(ps, dm, sig, w, cfg, nullptr);
  // All paths have capacity 1, uniform ratios 1/3 => S^max = 1/3 per pair.
  // L2 = 2.0 * (1.0 + 0.5) * (1/3).
  EXPECT_NEAR(lv.robust, 2.0 * 1.5 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(lv.mlu, 0.0);
}

TEST(FigretLoss, RobustWeightZeroIsDote) {
  const PathSet ps = mesh_pathset(4);
  util::Rng rng(5);
  std::vector<double> sig(ps.num_paths());
  for (auto& s : sig) s = rng.uniform(0.1, 0.9);
  traffic::DemandMatrix dm(4);
  for (std::size_t p = 0; p < dm.size(); ++p) dm[p] = rng.uniform(0.1, 1.0);
  std::vector<double> w(ps.num_pairs(), 1.0);
  const LossValue dote = figret_loss(ps, dm, sig, w, LossConfig{0.0}, nullptr);
  EXPECT_DOUBLE_EQ(dote.robust, 0.0);
  EXPECT_DOUBLE_EQ(dote.total, dote.mlu);
}

TEST(FigretLoss, HigherSensitivityRaisesRobustTerm) {
  const PathSet ps = mesh_pathset(3);
  traffic::DemandMatrix dm(3, 0.0);
  std::vector<double> w(ps.num_pairs(), 1.0);
  std::vector<double> spread(ps.num_paths(), 0.5);  // uniform
  std::vector<double> concentrated(ps.num_paths(), 0.05);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr)
    concentrated[ps.pair_begin(pr)] = 0.95;  // nearly all on one path
  const LossConfig cfg{1.0};
  const double l_spread =
      figret_loss(ps, dm, spread, w, cfg, nullptr).robust;
  const double l_conc =
      figret_loss(ps, dm, concentrated, w, cfg, nullptr).robust;
  EXPECT_LT(l_spread, l_conc);
}

// ---------------------------------------------------------------------------
// Finite-difference sweep over random instances (the PyTorch-equivalence
// property: our analytic sub-gradient must match numeric differentiation
// away from argmax ties).
// ---------------------------------------------------------------------------

class LossGradient : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossGradient, MatchesFiniteDifferences) {
  const PathSet ps = mesh_pathset(4);
  util::Rng rng(GetParam());
  std::vector<double> sig(ps.num_paths());
  for (auto& s : sig) s = rng.uniform(0.1, 0.9);
  traffic::DemandMatrix dm(4);
  // Distinct random demands avoid exact argmax ties.
  for (std::size_t p = 0; p < dm.size(); ++p) dm[p] = rng.uniform(0.2, 2.0);
  std::vector<double> w(ps.num_pairs());
  for (auto& v : w) v = rng.uniform(0.0, 1.0);
  const LossConfig cfg{0.7};

  std::vector<double> grad;
  (void)figret_loss(ps, dm, sig, w, cfg, &grad);

  const double eps = 1e-7;
  for (std::size_t j = 0; j < sig.size(); j += 5) {
    const double orig = sig[j];
    sig[j] = orig + eps;
    const double up = figret_loss(ps, dm, sig, w, cfg, nullptr).total;
    sig[j] = orig - eps;
    const double down = figret_loss(ps, dm, sig, w, cfg, nullptr).total;
    sig[j] = orig;
    const double fd = (up - down) / (2.0 * eps);
    EXPECT_NEAR(grad[j], fd, 1e-4) << "seed " << GetParam() << " path " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossGradient,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(FigretLoss, GradientPushesTrafficOffBottleneck) {
  // Single dominant demand: the gradient on the bottleneck path's sigmoid
  // output must be positive (increasing it would raise the loss).
  const PathSet ps = mesh_pathset(3);
  traffic::DemandMatrix dm(3, 0.0);
  dm[0] = 1.0;
  std::vector<double> sig(ps.num_paths(), 0.5);
  const std::size_t b = ps.pair_begin(0);
  sig[b] = 0.9;  // direct path of pair 0 carries most traffic
  std::vector<double> w(ps.num_pairs(), 0.0);
  std::vector<double> grad;
  (void)figret_loss(ps, dm, sig, w, LossConfig{0.0}, &grad);
  EXPECT_GT(grad[b], 0.0);
}

TEST(FigretLoss, ReusedScratchIsBitIdenticalToAFreshOne) {
  // One scratch carried through instances of different sizes and loss
  // weights (a training task's sequence of samples) must give every call
  // the bytes a fresh scratch gives it, for the value and the gradient.
  LossScratch reused;
  util::Rng rng(71);
  for (const std::size_t nodes : {5u, 3u, 4u, 5u}) {
    const PathSet ps = mesh_pathset(nodes);
    for (const double robust : {0.0, 0.7}) {
      std::vector<double> sig(ps.num_paths());
      for (auto& s : sig) s = rng.uniform(0.05, 0.95);
      traffic::DemandMatrix dm(nodes);
      for (std::size_t p = 0; p < dm.size(); ++p) dm[p] = rng.uniform(0.0, 2.0);
      std::vector<double> w(ps.num_pairs());
      for (auto& v : w) v = rng.uniform(0.0, 1.0);
      const LossConfig cfg{robust};

      std::vector<double> grad_fresh, grad_reused;
      const LossValue fresh = figret_loss(ps, dm, sig, w, cfg, &grad_fresh);
      const LossValue again =
          figret_loss(ps, dm, sig, w, cfg, &grad_reused, reused);
      EXPECT_EQ(std::memcmp(&fresh, &again, sizeof fresh), 0)
          << nodes << " nodes, robust " << robust;
      ASSERT_EQ(grad_reused.size(), grad_fresh.size());
      EXPECT_EQ(std::memcmp(grad_reused.data(), grad_fresh.data(),
                            grad_fresh.size() * sizeof(double)),
                0)
          << nodes << " nodes, robust " << robust;
    }
  }
}

TEST(FigretLoss, InputValidation) {
  const PathSet ps = mesh_pathset(3);
  const std::vector<double> sig(ps.num_paths(), 0.5);
  const std::vector<double> bad_sig(ps.num_paths() - 1, 0.5);
  const traffic::DemandMatrix dm(3, 1.0);
  const std::vector<double> w(ps.num_pairs(), 1.0);
  const std::vector<double> bad_w(2, 1.0);
  EXPECT_THROW(
      figret_loss(ps, dm, bad_sig, w, LossConfig{1.0}, nullptr),
      std::invalid_argument);
  EXPECT_THROW(figret_loss(ps, dm, sig, bad_w, LossConfig{1.0}, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace figret::te
