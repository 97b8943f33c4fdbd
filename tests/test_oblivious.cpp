#include "te/oblivious.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "net/topology.h"
#include "net/yen.h"
#include "te/hose.h"
#include "te/mlu.h"
#include "traffic/generators.h"
#include "util/rng.h"

namespace figret::te {
namespace {

PathSet triangle_pathset() {
  net::Graph g(3);
  g.add_link(0, 1, 2.0);
  g.add_link(1, 2, 2.0);
  g.add_link(0, 2, 2.0);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 2));
}

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

TEST(Hose, BoundsReflectAttachedCapacity) {
  const PathSet ps = triangle_pathset();
  const HoseBounds h = hose_bounds(ps, 1.0);
  ASSERT_EQ(h.out.size(), 3u);
  // Each triangle node has two outgoing capacity-2 arcs.
  for (double v : h.out) EXPECT_NEAR(v, 4.0, 1e-9);
  for (double v : h.in) EXPECT_NEAR(v, 4.0, 1e-9);
}

TEST(Hose, ScaleMultipliesBounds) {
  const PathSet ps = triangle_pathset();
  const HoseBounds h1 = hose_bounds(ps, 1.0);
  const HoseBounds h2 = hose_bounds(ps, 0.5);
  for (std::size_t v = 0; v < h1.out.size(); ++v)
    EXPECT_NEAR(h2.out[v], 0.5 * h1.out[v], 1e-12);
}

TEST(Hose, RejectsNonPositiveOrNonFiniteScale) {
  const PathSet ps = triangle_pathset();
  for (const double scale :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()})
    EXPECT_THROW(hose_bounds(ps, scale), std::invalid_argument) << scale;
  HoseRobustOptions opt;
  opt.hose_scale = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(solve_hose_robust(ps, opt), std::invalid_argument);
}

TEST(Hose, AdversaryDemandIsHoseFeasible) {
  const PathSet ps = mesh_pathset(4);
  const HoseBounds h = hose_bounds(ps, 1.0);
  const TeConfig cfg = uniform_config(ps);
  const auto [util, dm] = worst_demand_for_edge(ps, cfg, h, 0);
  EXPECT_GT(util, 0.0);
  const std::size_t n = ps.num_nodes();
  for (std::size_t s = 0; s < n; ++s) {
    double row = 0.0;
    for (std::size_t d = 0; d < n; ++d)
      if (s != d) row += dm.at(s, d);
    EXPECT_LE(row, h.out[s] + 1e-6);
  }
  for (std::size_t d = 0; d < n; ++d) {
    double col = 0.0;
    for (std::size_t s = 0; s < n; ++s)
      if (s != d) col += dm.at(s, d);
    EXPECT_LE(col, h.in[d] + 1e-6);
  }
}

TEST(Hose, AdversaryMaximizesTheTargetEdge) {
  // The adversary's utilization must dominate random hose-feasible demands.
  const PathSet ps = mesh_pathset(4);
  const HoseBounds h = hose_bounds(ps, 1.0);
  const TeConfig cfg = uniform_config(ps);
  const net::EdgeId e = 3;
  const auto [best_util, _] = worst_demand_for_edge(ps, cfg, h, e);

  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    traffic::DemandMatrix dm(4);
    for (std::size_t p = 0; p < dm.size(); ++p) dm[p] = rng.uniform(0.0, 1.0);
    // Scale into the hose polytope.
    double worst_ratio = 0.0;
    for (std::size_t s = 0; s < 4; ++s) {
      double row = 0.0, col = 0.0;
      for (std::size_t d2 = 0; d2 < 4; ++d2) {
        if (s == d2) continue;
        row += dm.at(s, d2);
        col += dm.at(d2, s);
      }
      worst_ratio = std::max({worst_ratio, row / h.out[s], col / h.in[s]});
    }
    if (worst_ratio > 0.0)
      for (auto& v : dm.values()) v /= worst_ratio;
    const auto load = edge_loads(ps, dm, cfg);
    EXPECT_LE(load[e] / ps.edge_capacity(e), best_util + 1e-6);
  }
}

struct ObliviousCase {
  const char* name;
  PathSet (*build)();
  double r;  // the optimal hose worst-case MLU
};

class ObliviousOptimum : public ::testing::TestWithParam<ObliviousCase> {};

TEST_P(ObliviousOptimum, CompactLpMeetsTheExactOracle) {
  const PathSet ps = GetParam().build();
  const HoseRobustResult r = solve_hose_robust(ps, {});
  ASSERT_EQ(r.status, lp::Status::kOptimal);
  EXPECT_TRUE(valid_config(ps, r.config));
  EXPECT_NEAR(r.master_mlu, GetParam().r, 1e-9 * GetParam().r);
  // The LP objective is the config's exact hose worst case, which the
  // per-edge adversary LPs measure independently of the compact LP.
  const double exact = worst_case_mlu_hose(ps, r.config);
  EXPECT_NEAR(exact, r.master_mlu, 1e-9 * r.master_mlu);
  EXPECT_EQ(r.worst_mlu, exact);
  // In oblivious mode the run is its own reference.
  EXPECT_EQ(r.oblivious_mlu, r.worst_mlu);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ObliviousOptimum,
    ::testing::Values(ObliviousCase{"triangle", triangle_pathset, 4.0 / 3.0},
                      ObliviousCase{"mesh4", [] { return mesh_pathset(4); },
                                    1.5},
                      ObliviousCase{"mesh5", [] { return mesh_pathset(5); },
                                    2.0}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Oblivious, OptimalBeatsArbitraryConfigsInWorstCase) {
  const PathSet ps = triangle_pathset();
  const HoseRobustResult r = solve_hose_robust(ps, {});
  ASSERT_EQ(r.status, lp::Status::kOptimal);
  // The oblivious config's worst case must not exceed that of the uniform
  // or the all-direct configuration (it minimizes the worst case).
  const double uniform_worst = worst_case_mlu_hose(ps, uniform_config(ps));
  EXPECT_LE(r.worst_mlu, uniform_worst + 1e-9);

  TeConfig direct(ps.num_paths(), 0.0);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
      if (ps.path_edges(p).size() == 1) direct[p] = 1.0;
  }
  direct = normalize_config(ps, direct);
  EXPECT_LE(r.worst_mlu, worst_case_mlu_hose(ps, direct) + 1e-9);
}

TEST(HoseRobust, MasterIterationLimitIsAnErrorInEitherMode) {
  // A pivot-starved compact LP must surface kIterationLimit instead of
  // silently keeping the uniform configuration. COPE's first stage is the
  // oblivious solve, so both modes throw.
  const PathSet ps = triangle_pathset();
  const traffic::TrafficTrace train = traffic::gravity_trace(3, 40, 31);
  for (const double penalty_ratio : {0.0, 1.5}) {
    HoseRobustOptions opt;
    opt.penalty_ratio = penalty_ratio;
    opt.solver.simplex.max_iterations = 1;
    EXPECT_THROW(solve_hose_robust(ps, opt, train), std::runtime_error)
        << "penalty_ratio " << penalty_ratio;
  }
}

TEST(HoseRobust, RejectsInvalidPenaltyRatio) {
  // Neither oblivious (0) nor COPE (beta >= 1): used to return a silently
  // unsolved configuration.
  const PathSet ps = triangle_pathset();
  const traffic::TrafficTrace train = traffic::gravity_trace(3, 40, 31);
  for (const double penalty_ratio :
       {-1.0, 0.5, 0.999, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    HoseRobustOptions opt;
    opt.penalty_ratio = penalty_ratio;
    EXPECT_THROW(solve_hose_robust(ps, opt, train), std::invalid_argument)
        << "penalty_ratio " << penalty_ratio;
    HoseRobustTe scheme(ps, opt);
    EXPECT_THROW(scheme.fit(train), std::invalid_argument);
  }
}

TEST(Oblivious, TimeBudgetShortCircuits) {
  // A spent budget (0 or less) returns at once with kDeadline and the
  // uniform config, in either mode.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace train = traffic::gravity_trace(4, 20, 7);
  for (const double budget : {0.0, -1.0}) {
    for (const double penalty_ratio : {0.0, 1.5}) {
      HoseRobustOptions opt;
      opt.time_budget_seconds = budget;
      opt.penalty_ratio = penalty_ratio;
      const HoseRobustResult r = solve_hose_robust(ps, opt, train);
      EXPECT_EQ(r.status, lp::Status::kDeadline)
          << "budget " << budget << ", penalty_ratio " << penalty_ratio;
      EXPECT_EQ(r.config, uniform_config(ps));
      EXPECT_EQ(r.master_mlu, 0.0);
    }
  }
}

TEST(Oblivious, ExpiredBudgetNeverCertifiesAnOptimum) {
  // COPE must not build an envelope from an r_obl that was never reached:
  // with the oblivious stage out of time, the call reports that stage's
  // status and config, and its worst case is the uniform config's, exactly.
  // (An expired budget, not a tiny one: a 1e-4 s budget can finish this LP
  // before the engine's first clock probe.)
  const PathSet ps = mesh_pathset(5);
  HoseRobustOptions opt;
  opt.time_budget_seconds = 0.0;
  opt.penalty_ratio = 1.5;
  const HoseRobustResult r =
      solve_hose_robust(ps, opt, traffic::gravity_trace(5, 20, 7));
  EXPECT_EQ(r.status, lp::Status::kDeadline);
  EXPECT_TRUE(valid_config(ps, r.config));
  const double uniform_worst = worst_case_mlu_hose(ps, uniform_config(ps));
  EXPECT_EQ(r.worst_mlu, uniform_worst);
  EXPECT_EQ(r.oblivious_mlu, uniform_worst);
}

TEST(Oblivious, SchemeAdapterLifecycle) {
  const PathSet ps = triangle_pathset();
  HoseRobustTe scheme(ps);
  EXPECT_EQ(scheme.name(), "Oblivious");
  EXPECT_THROW(scheme.advise({}), std::logic_error);
  traffic::TrafficTrace dummy;
  dummy.num_nodes = 3;
  dummy.snapshots.emplace_back(3, 1.0);
  scheme.fit(dummy);
  const TeConfig cfg = scheme.advise({});
  EXPECT_TRUE(valid_config(ps, cfg));
  // Oblivious routing ignores history: same config for any input.
  std::vector<traffic::DemandMatrix> h(1, traffic::DemandMatrix(3, 9.0));
  const TeConfig cfg2 = scheme.advise(h);
  for (std::size_t p = 0; p < cfg.size(); ++p) EXPECT_DOUBLE_EQ(cfg[p], cfg2[p]);
}

TEST(Oblivious, IgnoresTrainingTrace) {
  // Oblivious mode never reads `train`: an empty trace and a real one give
  // the same configuration, bit for bit.
  const PathSet ps = mesh_pathset(4);
  const HoseRobustResult a = solve_hose_robust(ps, {});
  const HoseRobustResult b =
      solve_hose_robust(ps, {}, traffic::gravity_trace(4, 20, 7));
  ASSERT_EQ(a.config.size(), b.config.size());
  EXPECT_EQ(0, std::memcmp(a.config.data(), b.config.data(),
                           a.config.size() * sizeof(double)));
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.master_mlu, b.master_mlu);
}

}  // namespace
}  // namespace figret::te
