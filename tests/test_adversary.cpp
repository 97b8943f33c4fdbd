// Tests for the regret-maximizing demand adversary (traffic/adversary.h):
// hose feasibility of every evaluated candidate, monotone best-so-far regret
// within each step, and bit-identical search traces for identical seeds.
#include "traffic/adversary.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/topology.h"
#include "net/yen.h"
#include "te/lp_schemes.h"
#include "traffic/generators.h"

namespace figret::traffic {
namespace {

te::PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return te::PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

AdversaryOptions small_options() {
  AdversaryOptions opt;
  opt.steps = 2;
  opt.iterations = 12;
  opt.oracle_seeds = 2;
  opt.seed = 7;
  return opt;
}

std::vector<DemandMatrix> history_for(const te::PathSet& ps,
                                      std::size_t len) {
  const TrafficTrace t = gravity_trace(ps.num_nodes(), len, 19);
  return {t.snapshots.begin(), t.snapshots.end()};
}

void expect_traces_bit_equal(const TrafficTrace& a, const TrafficTrace& b) {
  ASSERT_EQ(a.num_nodes, b.num_nodes);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].is_sparse(), b[s].is_sparse());
    ASSERT_EQ(a[s].nnz(), b[s].nnz());
    std::vector<std::pair<std::size_t, double>> ea, eb;
    a[s].for_each_active([&](std::size_t p, double v) { ea.push_back({p, v}); });
    b[s].for_each_active([&](std::size_t p, double v) { eb.push_back({p, v}); });
    EXPECT_EQ(ea, eb);  // same keys, bit-equal values
  }
}

TEST(RegretAdversary, EveryCandidateIsHoseFeasible) {
  const te::PathSet ps = mesh_pathset(4);
  AdversaryOptions opt = small_options();
  opt.record_candidates = true;
  RegretAdversary adv(ps, opt);
  te::DesensitizationTe victim = te::prediction_te(ps);
  const auto hist = history_for(ps, 4);
  const AdversaryResult res = adv.attack(victim, hist);
  ASSERT_EQ(res.candidates.size(), res.search.size());
  ASSERT_GT(res.candidates.size(), 0u);
  for (const DemandMatrix& cand : res.candidates) {
    EXPECT_TRUE(cand.is_sparse());
    EXPECT_TRUE(adv.feasible(cand, 1e-6));
  }
  // The emitted trace snapshots are themselves candidates, hence feasible.
  for (const DemandMatrix& dm : res.trace.snapshots)
    EXPECT_TRUE(adv.feasible(dm, 1e-6));
}

TEST(RegretAdversary, BestSoFarRegretIsMonotonePerStep) {
  const te::PathSet ps = mesh_pathset(4);
  RegretAdversary adv(ps, small_options());
  te::DesensitizationTe victim = te::prediction_te(ps);
  const auto hist = history_for(ps, 4);
  const AdversaryResult res = adv.attack(victim, hist);
  ASSERT_FALSE(res.search.empty());
  double best = 0.0;
  std::uint32_t step = 0;
  for (const AdversarySearchRecord& r : res.search) {
    if (r.step != step) {
      step = r.step;
      best = 0.0;  // best-so-far resets at each step boundary
    }
    EXPECT_GE(r.best_regret, best);
    best = r.best_regret;
    if (r.accepted) {
      EXPECT_EQ(r.candidate_regret, r.best_regret);
    }
    EXPECT_LE(r.candidate_regret, r.best_regret);
  }
  // Step summaries agree with the trace and normalization: the omniscient
  // LP is optimal per demand, so any achieved regret is >= 1.
  ASSERT_EQ(res.step_regret.size(), 2u);
  ASSERT_EQ(res.trace.size(), 2u);
  for (double r : res.step_regret) {
    EXPECT_GE(r, 1.0 - 1e-9);
    EXPECT_LE(r, res.best_regret);
  }
}

TEST(RegretAdversary, IdenticalSeedsGiveBitIdenticalSearchTraces) {
  const te::PathSet ps = mesh_pathset(4);
  const auto hist = history_for(ps, 4);
  const auto run = [&] {
    RegretAdversary adv(ps, small_options());
    // Fresh victim: no warm-start carry-over.
    te::DesensitizationTe victim = te::prediction_te(ps);
    return adv.attack(victim, hist);
  };
  const AdversaryResult a = run();
  const AdversaryResult b = run();
  ASSERT_EQ(a.search.size(), b.search.size());
  for (std::size_t i = 0; i < a.search.size(); ++i) {
    EXPECT_EQ(a.search[i].step, b.search[i].step);
    EXPECT_EQ(a.search[i].iteration, b.search[i].iteration);
    EXPECT_EQ(a.search[i].candidate_regret, b.search[i].candidate_regret);
    EXPECT_EQ(a.search[i].best_regret, b.search[i].best_regret);
    EXPECT_EQ(a.search[i].accepted, b.search[i].accepted);
  }
  EXPECT_EQ(a.step_regret, b.step_regret);
  EXPECT_EQ(a.best_regret, b.best_regret);
  EXPECT_EQ(a.lp_solves, b.lp_solves);
  expect_traces_bit_equal(a.trace, b.trace);
}

TEST(RegretAdversary, ProjectionIsRegretNeutral) {
  // Uniform shrink cannot change MLU(R, D) / MLU(opt, D): both numerator
  // and denominator are linear in D.
  const te::PathSet ps = mesh_pathset(4);
  RegretAdversary adv(ps, small_options());
  te::DesensitizationTe victim = te::prediction_te(ps);
  const auto hist = history_for(ps, 4);
  // An infeasible demand: far above the hose bounds.
  DemandMatrix big = hist.back();
  std::vector<std::uint32_t> keys;
  std::vector<double> vals;
  big.for_each_active([&](std::size_t p, double v) {
    keys.push_back(static_cast<std::uint32_t>(p));
    vals.push_back(v * 1e6);
  });
  const DemandMatrix raw =
      DemandMatrix::sparse(big.num_nodes(), std::move(keys), std::move(vals));
  EXPECT_FALSE(adv.feasible(raw));
  const DemandMatrix proj = adv.project(raw);
  EXPECT_TRUE(adv.feasible(proj, 1e-6));
  const te::TeConfig cfg = victim.advise({&hist.back(), 1});
  const double r_raw = adv.regret(cfg, raw);
  const double r_proj = adv.regret(cfg, proj);
  EXPECT_NEAR(r_raw, r_proj, 1e-6 * r_raw);
}

TEST(RegretAdversary, ExtraSeedsAreConsideredAtStepZero) {
  const te::PathSet ps = mesh_pathset(4);
  AdversaryOptions opt = small_options();
  opt.steps = 1;
  opt.record_candidates = true;
  RegretAdversary adv(ps, opt);
  te::DesensitizationTe victim = te::prediction_te(ps);
  const auto hist = history_for(ps, 4);
  const std::vector<DemandMatrix> seeds = {hist.front()};
  const AdversaryResult res = adv.attack(victim, hist, seeds);
  // Candidate #0 is the latest history demand, #1 the extra seed (projected).
  ASSERT_GE(res.candidates.size(), 2u);
  const DemandMatrix expect = adv.project(hist.front());
  std::vector<std::pair<std::size_t, double>> got, want;
  res.candidates[1].for_each_active(
      [&](std::size_t p, double v) { got.push_back({p, v}); });
  expect.for_each_active(
      [&](std::size_t p, double v) { want.push_back({p, v}); });
  EXPECT_EQ(got, want);
}

TEST(RegretAdversary, RejectsShortHistoryAndBadOptions) {
  const te::PathSet ps = mesh_pathset(4);
  RegretAdversary adv(ps, small_options());
  te::DesensitizationTe victim(ps);  // history_window = 12
  const auto hist = history_for(ps, 4);
  EXPECT_THROW(adv.attack(victim, hist), std::invalid_argument);

  AdversaryOptions bad = small_options();
  bad.steps = 0;
  EXPECT_THROW(RegretAdversary(ps, bad), std::invalid_argument);
  bad = small_options();
  bad.hose_scale = 0.0;
  EXPECT_THROW(RegretAdversary(ps, bad), std::invalid_argument);
}

TEST(RegretAdversary, BudgetBoundsCandidateEvaluations) {
  const te::PathSet ps = mesh_pathset(4);
  AdversaryOptions opt = small_options();
  opt.steps = 3;
  opt.iterations = 9;
  RegretAdversary adv(ps, opt);
  te::DesensitizationTe victim = te::prediction_te(ps);
  const auto hist = history_for(ps, 4);
  const AdversaryResult res = adv.attack(victim, hist);
  EXPECT_EQ(res.search.size(), opt.steps * opt.iterations);
}

}  // namespace
}  // namespace figret::traffic
