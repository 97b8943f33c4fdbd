#include "te/lp_schemes.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>

#include "net/fabric.h"
#include "net/topology.h"
#include "net/yen.h"
#include "te/failover.h"
#include "te/mlu.h"
#include "traffic/generators.h"
#include "util/rng.h"

namespace figret::te {
namespace {

PathSet triangle_pathset(double cap = 2.0) {
  net::Graph g(3);
  g.add_link(0, 1, cap);
  g.add_link(1, 2, cap);
  g.add_link(0, 2, cap);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 2));
}

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

traffic::DemandMatrix fig3_demand(double ab, double ac, double bc) {
  traffic::DemandMatrix dm(3);
  dm[traffic::pair_index(3, 0, 1)] = ab;
  dm[traffic::pair_index(3, 0, 2)] = ac;
  dm[traffic::pair_index(3, 1, 2)] = bc;
  return dm;
}

TEST(MluLp, Fig3OptimumIsHalf) {
  // With unit demands on the Fig 3 triangle, all-direct routing is optimal:
  // MLU* = 0.5 (any traffic detour raises another edge above 0.5).
  const PathSet ps = triangle_pathset();
  const MluLpResult r = solve_mlu_lp(ps, fig3_demand(1, 1, 1));
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.mlu, 0.5, 1e-8);
  EXPECT_NEAR(mlu(ps, fig3_demand(1, 1, 1), normalize_config(ps, r.config)),
              0.5, 1e-8);
}

TEST(MluLp, SingleBigDemandSplitsAcrossPaths) {
  // Demand A->B of 4 with all arcs capacity 2: the optimum puts 2 on the
  // direct arc and 2 on the 2-hop path, MLU* = 2/2 = 1 (directed arcs have
  // independent capacities, so the split halves the bottleneck).
  const PathSet ps = triangle_pathset();
  const MluLpResult r = solve_mlu_lp(ps, fig3_demand(4, 0, 0));
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.mlu, 1.0, 1e-8);
}

TEST(MluLp, OptimalIsLowerBoundOverRandomConfigs) {
  const PathSet ps = mesh_pathset(4);
  util::Rng rng(7);
  traffic::DemandMatrix dm(4);
  for (std::size_t p = 0; p < dm.size(); ++p) dm[p] = rng.uniform(0.0, 1.0);
  const MluLpResult opt = solve_mlu_lp(ps, dm);
  ASSERT_TRUE(opt.optimal());
  for (int trial = 0; trial < 25; ++trial) {
    TeConfig raw(ps.num_paths());
    for (auto& v : raw) v = rng.uniform(0.0, 1.0);
    const TeConfig cfg = normalize_config(ps, raw);
    EXPECT_GE(mlu(ps, dm, cfg) + 1e-9, opt.mlu);
  }
}

TEST(MluLp, ConfigIsValidAfterNormalization) {
  const PathSet ps = mesh_pathset(5);
  util::Rng rng(9);
  traffic::DemandMatrix dm(5);
  for (std::size_t p = 0; p < dm.size(); ++p) dm[p] = rng.uniform(0.1, 1.0);
  const MluLpResult r = solve_mlu_lp(ps, dm);
  ASSERT_TRUE(r.optimal());
  EXPECT_TRUE(valid_config(ps, normalize_config(ps, r.config)));
}

TEST(MluLp, SensitivityCapsAreRespected) {
  const PathSet ps = mesh_pathset(4);
  const double bound = 0.6;
  const auto caps =
      sensitivity_caps(ps, std::vector<double>(ps.num_pairs(), bound));
  util::Rng rng(11);
  traffic::DemandMatrix dm(4);
  for (std::size_t p = 0; p < dm.size(); ++p) dm[p] = rng.uniform(0.1, 1.0);
  const MluLpResult r = solve_mlu_lp(ps, dm, &caps);
  ASSERT_TRUE(r.optimal());
  const auto sens = path_sensitivities(ps, normalize_config(ps, r.config));
  for (std::size_t pid = 0; pid < ps.num_paths(); ++pid)
    EXPECT_LE(sens[pid], bound + 1e-6);
}

TEST(MluLp, CapsNeverBelowOptimalUncapped) {
  // Adding sensitivity constraints can only worsen (raise) the optimal MLU.
  const PathSet ps = mesh_pathset(4);
  util::Rng rng(13);
  traffic::DemandMatrix dm(4);
  for (std::size_t p = 0; p < dm.size(); ++p) dm[p] = rng.uniform(0.1, 1.0);
  const MluLpResult unc = solve_mlu_lp(ps, dm);
  const auto caps =
      sensitivity_caps(ps, std::vector<double>(ps.num_pairs(), 0.5));
  const MluLpResult cap = solve_mlu_lp(ps, dm, &caps);
  ASSERT_TRUE(unc.optimal());
  ASSERT_TRUE(cap.optimal());
  EXPECT_GE(cap.mlu + 1e-9, unc.mlu);
}

TEST(SensitivityCaps, RelaxesInfeasiblyTightBounds) {
  // Bound so small that sum of caps < 1: the helper must relax it so a valid
  // split exists (Appendix C feasibility).
  const PathSet ps = mesh_pathset(4);  // 3 paths/pair, capacity 1
  const auto caps =
      sensitivity_caps(ps, std::vector<double>(ps.num_pairs(), 0.01));
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    double sum = 0.0;
    for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
      sum += caps[p];
    EXPECT_GE(sum, 1.0);
  }
}

TEST(SensitivityCaps, VacuousForFatPaths) {
  // GEANT has capacity-4 links: a 2/3 bound gives cap = min(1, 2/3 * C_p),
  // which is 1 (vacuous) whenever C_p >= 1.5.
  const net::Graph g = net::geant();
  const PathSet ps = PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const auto caps =
      sensitivity_caps(ps, std::vector<double>(ps.num_pairs(), 2.0 / 3.0));
  for (std::size_t pid = 0; pid < ps.num_paths(); ++pid) {
    if (ps.path_capacity(pid) >= 1.5) {
      EXPECT_DOUBLE_EQ(caps[pid], 1.0);
    }
  }
}

TEST(SensitivityCaps, RejectsBoundsThatDisableHedging) {
  // F = 0 or NaN used to give every cap 1.0 (0 * inf is NaN and
  // std::min(1.0, NaN) is 1.0), and F = -0.5 the same caps as F = 1/3.
  const PathSet ps = mesh_pathset(4);
  for (double f : {0.0, -0.5, std::nan("")})
    EXPECT_THROW(
        sensitivity_caps(ps, std::vector<double>(ps.num_pairs(), f)),
        std::invalid_argument)
        << "F = " << f;
  // +inf stays allowed: no cap, every entry exactly 1.
  const auto caps = sensitivity_caps(
      ps, std::vector<double>(ps.num_pairs(),
                              std::numeric_limits<double>::infinity()));
  for (double c : caps) EXPECT_EQ(c, 1.0);
}

TEST(SensitivityCaps, AliveMaskRelaxesOverLivePathsOnly) {
  const PathSet ps = mesh_pathset(4);  // 3 paths/pair, capacity 1
  std::vector<bool> alive(ps.num_paths(), true);
  for (std::size_t p = ps.pair_begin(0); p < ps.pair_end(0); ++p)
    alive[p] = false;                // pair 0: no live path
  alive[ps.pair_begin(1)] = false;   // pair 1: two live paths
  const auto caps = sensitivity_caps(
      ps, std::vector<double>(ps.num_pairs(), 0.01), &alive);
  for (std::size_t p = ps.pair_begin(0); p < ps.pair_end(0); ++p)
    EXPECT_DOUBLE_EQ(caps[p], 0.01);  // not relaxed
  double live_sum = 0.0;
  for (std::size_t p = ps.pair_begin(1); p < ps.pair_end(1); ++p)
    if (alive[p]) live_sum += caps[p];
  EXPECT_GE(live_sum, 1.0);
}

TEST(MluLp, AliveMaskExcludesDeadPaths) {
  const PathSet ps = mesh_pathset(4);
  std::vector<bool> alive(ps.num_paths(), true);
  // Kill the direct path of pair 0.
  alive[ps.pair_begin(0)] = false;
  traffic::DemandMatrix dm(4, 0.5);
  const MluLpResult r = solve_mlu_lp(ps, dm, nullptr, &alive);
  ASSERT_TRUE(r.optimal());
  EXPECT_DOUBLE_EQ(r.config[ps.pair_begin(0)], 0.0);
  double sum = 0.0;
  for (std::size_t p = ps.pair_begin(0); p < ps.pair_end(0); ++p)
    sum += r.config[p];
  EXPECT_NEAR(sum, 1.0, 1e-8);

  // Kill every path of pair 1 too: it is disconnected, so its demand is
  // dropped and its ratios are 0, while the other pairs still split fully.
  for (std::size_t p = ps.pair_begin(1); p < ps.pair_end(1); ++p)
    alive[p] = false;
  const MluLpResult cut = solve_mlu_lp(ps, dm, nullptr, &alive);
  ASSERT_TRUE(cut.optimal());
  EXPECT_LE(cut.mlu, r.mlu + 1e-9);
  for (std::size_t p = ps.pair_begin(1); p < ps.pair_end(1); ++p)
    EXPECT_EQ(cut.config[p], 0.0);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    if (pr == 1) continue;
    double pair_sum = 0.0;
    for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
      pair_sum += cut.config[p];
    EXPECT_NEAR(pair_sum, 1.0, 1e-8) << "pair " << pr;
  }
}

TEST(PredictionTe, OptimalForPreviousDemand) {
  const PathSet ps = triangle_pathset();
  DesensitizationTe scheme = prediction_te(ps);
  scheme.fit({});
  const std::vector<traffic::DemandMatrix> history{fig3_demand(1, 1, 1)};
  const TeConfig cfg = scheme.advise(history);
  EXPECT_TRUE(valid_config(ps, cfg));
  EXPECT_NEAR(mlu(ps, fig3_demand(1, 1, 1), cfg), 0.5, 1e-8);
}

TEST(PredictionTe, VulnerableToBursts) {
  // Configured for (1,1,1) but hit by a burst: prediction-based TE gets the
  // full 2.0 penalty (Fig 3 scheme 1's burst behaviour).
  const PathSet ps = triangle_pathset();
  DesensitizationTe scheme = prediction_te(ps);
  const std::vector<traffic::DemandMatrix> history{fig3_demand(1, 1, 1)};
  const TeConfig cfg = scheme.advise(history);
  EXPECT_NEAR(mlu(ps, fig3_demand(4, 1, 1), cfg), 2.0, 1e-6);
}

TEST(DesensitizationTe, BoundsSensitivityOnUnitMesh) {
  const PathSet ps = mesh_pathset(4);
  DesensitizationOptions opt;
  opt.max_bound = opt.min_bound = 0.5;
  DesensitizationTe scheme(ps, opt);
  std::vector<traffic::DemandMatrix> history(3, traffic::DemandMatrix(4, 0.2));
  const TeConfig cfg = scheme.advise(history);
  EXPECT_TRUE(valid_config(ps, cfg));
  const auto sens = path_sensitivities(ps, cfg);
  for (double s : sens) EXPECT_LE(s, 0.5 + 1e-6);
}

TEST(DesensitizationTe, MoreRobustLessOptimalThanPred) {
  // On the Fig 3 triangle with history (1,1,1): Des TE spreads traffic, so
  // its normal-case MLU is worse than Pred TE's 0.5, but its burst-case MLU
  // is better than Pred TE's 2.0 — the §2.1 trade-off.
  const PathSet ps = triangle_pathset();
  DesensitizationOptions opt;
  opt.max_bound = opt.min_bound = 0.25;  // C_p = 2: r_p <= 0.5 on every path
  DesensitizationTe des(ps, opt);
  DesensitizationTe pred = prediction_te(ps);
  const std::vector<traffic::DemandMatrix> history{fig3_demand(1, 1, 1)};
  const TeConfig des_cfg = des.advise(history);
  const TeConfig pred_cfg = pred.advise(history);
  EXPECT_GE(mlu(ps, fig3_demand(1, 1, 1), des_cfg) + 1e-9,
            mlu(ps, fig3_demand(1, 1, 1), pred_cfg));
  EXPECT_LE(mlu(ps, fig3_demand(4, 1, 1), des_cfg),
            mlu(ps, fig3_demand(4, 1, 1), pred_cfg) + 1e-9);
}

TEST(DesensitizationTe, UsesPeakOfWindow) {
  const PathSet ps = triangle_pathset();
  DesensitizationTe scheme(ps);
  // Window contains one snapshot with a large A->B demand: the anticipated
  // matrix must reflect it even though the most recent snapshot is small.
  std::vector<traffic::DemandMatrix> history{fig3_demand(4, 1, 1),
                                             fig3_demand(1, 1, 1)};
  const TeConfig cfg = scheme.advise(history);
  // Under the anticipated burst, A->B traffic should be partially spread.
  const std::size_t pr = traffic::pair_index(3, 0, 1);
  double direct = 0.0;
  for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
    if (ps.path_edges(p).size() == 1) direct = cfg[p];
  EXPECT_LT(direct, 1.0 - 1e-6);
}

TEST(FaultAwareDesTe, NeverUsesDeadPaths) {
  const PathSet ps = mesh_pathset(4);
  std::vector<bool> alive(ps.num_paths(), true);
  alive[ps.pair_begin(2)] = false;
  alive[ps.pair_begin(5) + 1] = false;
  DesensitizationTe scheme(ps, {}, "FA-DesTE", nullptr, alive);
  std::vector<traffic::DemandMatrix> history(2, traffic::DemandMatrix(4, 0.3));
  const TeConfig cfg = scheme.advise(history);
  for (std::size_t pid = 0; pid < ps.num_paths(); ++pid) {
    if (!alive[pid]) {
      EXPECT_DOUBLE_EQ(cfg[pid], 0.0);
    }
  }
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    double sum = 0.0;
    for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
      sum += cfg[p];
    EXPECT_NEAR(sum, 1.0, 1e-8);
  }
}

TEST(DesensitizationTe, RejectsBadOptions) {
  const PathSet ps = mesh_pathset(4);
  for (double f : {0.0, -0.5, std::nan("")}) {
    DesensitizationOptions uniform;
    uniform.max_bound = uniform.min_bound = f;
    EXPECT_THROW(DesensitizationTe(ps, uniform), std::invalid_argument);
    DesensitizationOptions low;
    low.min_bound = f;
    EXPECT_THROW(DesensitizationTe(ps, low), std::invalid_argument);
  }
  DesensitizationOptions no_window;
  no_window.window = 0;
  EXPECT_THROW(DesensitizationTe(ps, no_window), std::invalid_argument);
  EXPECT_THROW(DesensitizationTe(ps, {}, "FA-DesTE", nullptr,
                                 std::vector<bool>(ps.num_paths() + 1, true)),
               std::invalid_argument);
}

// Each configuration must be exactly the capped LP it names: over a warm
// chain on a sparse fat-tree trace, advise() is compared bitwise against a
// hand-built solve_mlu_lp chain on the same anticipated demands.
class CappedLpChain : public ::testing::Test {
 protected:
  using Anticipate = std::function<traffic::DemandMatrix(
      std::span<const traffic::DemandMatrix>)>;

  static constexpr std::size_t kSteps = 12;

  void expect_chain(DesensitizationTe& scheme, const Anticipate& anticipate,
                    const std::vector<double>* caps,
                    const std::vector<bool>* alive = nullptr) {
    lp::WarmStart warm;
    const std::size_t w = scheme.history_window();
    for (std::size_t t = w; t < w + kSteps; ++t) {
      const std::span<const traffic::DemandMatrix> hist(
          trace_.snapshots.data() + (t - w), w);
      const TeConfig got = scheme.advise(hist);
      MluLpResult ref =
          solve_mlu_lp(ps_, anticipate(hist), caps, alive, nullptr, &warm);
      ASSERT_TRUE(ref.optimal());
      const TeConfig want = alive ? normalize_live(std::move(ref.config))
                                  : normalize_config(ps_, ref.config);
      ASSERT_EQ(got, want) << scheme.name() << " at t = " << t;
    }
  }

  // Per-pair normalization over the LP's own (live-path) support.
  TeConfig normalize_live(TeConfig cfg) const {
    for (std::size_t pr = 0; pr < ps_.num_pairs(); ++pr) {
      double sum = 0.0;
      for (std::size_t p = ps_.pair_begin(pr); p < ps_.pair_end(pr); ++p)
        sum += cfg[p];
      if (sum > 1e-12)
        for (std::size_t p = ps_.pair_begin(pr); p < ps_.pair_end(pr); ++p)
          cfg[p] /= sum;
    }
    return cfg;
  }

  std::vector<double> uniform_caps(double f,
                                   const std::vector<bool>* alive = nullptr) {
    return sensitivity_caps(ps_, std::vector<double>(ps_.num_pairs(), f),
                            alive);
  }

  const net::FatTree ft_ = net::fat_tree(4);
  const PathSet ps_ = PathSet::build(ft_.graph, net::fat_tree_paths(ft_, 4));
  const traffic::TrafficTrace trace_ = traffic::fabric_trace(
      ft_.graph.num_nodes(), 40, 5, {.active_fraction = 0.05});
};

TEST_F(CappedLpChain, PredictionTeIsTheUncappedLpOnTheLastSnapshot) {
  ASSERT_TRUE(trace_[0].is_sparse());
  DesensitizationTe pred = prediction_te(ps_);
  EXPECT_EQ(pred.name(), "PredTE");
  EXPECT_EQ(pred.history_window(), 1u);
  expect_chain(
      pred,
      [](std::span<const traffic::DemandMatrix> h) { return h.back(); },
      nullptr);
}

TEST_F(CappedLpChain, DesTeIsTheUniformlyCappedLpOnTheWindowPeak) {
  // A loose bound leaves the LP room to follow the anticipated demand (at
  // F = 0.5 the caps alone fix most splits on this fabric).
  DesensitizationOptions opt;
  opt.max_bound = opt.min_bound = 0.8;
  opt.window = 4;
  DesensitizationTe des(ps_, opt);
  traffic::PeakPredictor peak;
  const auto caps = uniform_caps(0.8);
  expect_chain(
      des,
      [&](std::span<const traffic::DemandMatrix> h) {
        return peak.predict(h);
      },
      &caps);
}

TEST_F(CappedLpChain, FaultAwareDesTeLeavesDisconnectedPairsAtZero) {
  // Failing both uplinks of edge switch 0 disconnects every pair it sources.
  const net::NodeId tor = ft_.edge_sw(0, 0);
  const std::vector<net::EdgeId> failed{
      ft_.graph.find_edge(tor, ft_.agg_sw(0, 0)),
      ft_.graph.find_edge(tor, ft_.agg_sw(0, 1))};
  const std::vector<bool> alive = surviving_paths(ps_, failed);
  DesensitizationOptions opt;
  opt.window = 4;
  DesensitizationTe fa(ps_, opt, "FA-DesTE", nullptr, alive);
  traffic::PeakPredictor peak;
  const auto caps = uniform_caps(opt.max_bound, &alive);
  expect_chain(
      fa,
      [&](std::span<const traffic::DemandMatrix> h) {
        return peak.predict(h);
      },
      &caps, &alive);

  const std::span<const traffic::DemandMatrix> hist(trace_.snapshots.data(),
                                                    opt.window);
  const TeConfig cfg = fa.advise(hist);
  std::size_t disconnected = 0;
  for (std::size_t pr = 0; pr < ps_.num_pairs(); ++pr) {
    bool live = false;
    double sum = 0.0;
    for (std::size_t p = ps_.pair_begin(pr); p < ps_.pair_end(pr); ++p) {
      live = live || alive[p];
      if (!alive[p]) {
        EXPECT_EQ(cfg[p], 0.0);
      }
      sum += cfg[p];
    }
    if (live) {
      EXPECT_NEAR(sum, 1.0, 1e-9);
    } else {
      ++disconnected;
      EXPECT_EQ(sum, 0.0);
    }
  }
  EXPECT_GT(disconnected, 0u);
}

TEST(Schemes, ThrowOnEmptyHistory) {
  const PathSet ps = triangle_pathset();
  DesensitizationTe pred = prediction_te(ps);
  DesensitizationTe des(ps);
  EXPECT_THROW(pred.advise({}), std::invalid_argument);
  EXPECT_THROW(des.advise({}), std::invalid_argument);
}

}  // namespace
}  // namespace figret::te
