#include "te/oblivious.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>

#include "net/topology.h"
#include "net/yen.h"
#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "traffic/generators.h"

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

traffic::TrafficTrace stable_trace(std::size_t n, std::size_t len) {
  return traffic::gravity_trace(n, len, 31);
}

HoseRobustOptions cope_options(double penalty_ratio) {
  HoseRobustOptions opt;
  opt.penalty_ratio = penalty_ratio;
  opt.max_rounds = 40;
  return opt;
}

TEST(Cope, EnvelopeHolds) {
  const PathSet ps = triangle_pathset();
  const HoseRobustOptions opt = cope_options(1.5);
  const HoseRobustResult r = solve_hose_robust(ps, opt, stable_trace(3, 40));
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(valid_config(ps, r.config));
  // Worst-case MLU within the penalty envelope of the oblivious optimum.
  EXPECT_LE(r.worst_mlu,
            opt.penalty_ratio * r.oblivious_mlu * (1.0 + 1e-2) + 1e-9);
}

TEST(Cope, PredictedPerformanceBeatsOblivious) {
  // COPE's whole point: on the predicted demand set it outperforms pure
  // oblivious routing (which optimizes only the worst case).
  const PathSet ps = triangle_pathset();
  const auto train = stable_trace(3, 40);
  const HoseRobustOptions opt = cope_options(2.0);
  const HoseRobustResult cope = solve_hose_robust(ps, opt, train);
  ASSERT_TRUE(cope.converged);
  const HoseRobustResult obl = solve_hose_robust(ps, cope_options(0.0));

  // Evaluate both on the recent training demands.
  double cope_mlu = 0.0, obl_mlu = 0.0;
  for (std::size_t t = train.size() - 10; t < train.size(); ++t) {
    cope_mlu += mlu(ps, train[t], cope.config);
    obl_mlu += mlu(ps, train[t], obl.config);
  }
  EXPECT_LE(cope_mlu, obl_mlu + 1e-6);
}

TEST(Cope, PredictedMluNearOptimalWithLooseEnvelope) {
  // With a very loose envelope, COPE should approach the per-demand optimum
  // on its predicted set (the envelope never binds).
  const PathSet ps = triangle_pathset();
  const auto train = stable_trace(3, 30);
  const HoseRobustResult r =
      solve_hose_robust(ps, cope_options(100.0), train);
  ASSERT_TRUE(r.converged);

  // The best achievable max-MLU over the predicted set is at least the max
  // of per-demand optima; COPE should be within a modest factor.
  double lower = 0.0;
  for (std::size_t t = train.size() - 12; t < train.size(); ++t) {
    const MluLpResult per = solve_mlu_lp(ps, train[t]);
    ASSERT_TRUE(per.optimal());
    lower = std::max(lower, per.mlu);
  }
  EXPECT_GE(r.master_mlu + 1e-9, lower);
  EXPECT_LE(r.master_mlu, lower * 1.5 + 1e-9);
}

TEST(Cope, TighterEnvelopeTradesPredictedPerformance) {
  const PathSet ps = triangle_pathset();
  const auto train = stable_trace(3, 30);
  const HoseRobustResult r_loose =
      solve_hose_robust(ps, cope_options(10.0), train);
  const HoseRobustResult r_tight =
      solve_hose_robust(ps, cope_options(1.02), train);
  // A tighter worst-case envelope cannot improve predicted-set performance.
  EXPECT_GE(r_tight.master_mlu + 1e-6, r_loose.master_mlu);
  // But it must yield a better (or equal) worst case.
  EXPECT_LE(worst_case_mlu_hose(ps, r_tight.config),
            worst_case_mlu_hose(ps, r_loose.config) + 1e-3);
}

TEST(Cope, StageOneIsTheObliviousSolve) {
  // COPE's r_obl is the oblivious run with the same options, bit for bit.
  for (const PathSet& ps : {triangle_pathset(), mesh_pathset(4)}) {
    const auto train = stable_trace(ps.num_nodes(), 30);
    const HoseRobustResult obl = solve_hose_robust(ps, cope_options(0.0));
    ASSERT_TRUE(obl.converged);
    for (const double beta : {1.0, 1.5, 3.0}) {
      const HoseRobustResult cope =
          solve_hose_robust(ps, cope_options(beta), train);
      EXPECT_EQ(0, std::memcmp(&cope.oblivious_mlu, &obl.worst_mlu,
                               sizeof(double)))
          << "beta " << beta << ": " << cope.oblivious_mlu << " vs "
          << obl.worst_mlu;
    }
  }
}

TEST(Cope, SchemeLifecycle) {
  const PathSet ps = triangle_pathset();
  HoseRobustTe scheme(ps, cope_options(1.5));
  EXPECT_EQ(scheme.name(), "COPE");
  EXPECT_THROW(scheme.advise({}), std::logic_error);
  scheme.fit(stable_trace(3, 25));
  const TeConfig cfg = scheme.advise({});
  EXPECT_TRUE(valid_config(ps, cfg));
}

TEST(Cope, EmptyTrainingThrows) {
  const PathSet ps = triangle_pathset();
  traffic::TrafficTrace empty;
  empty.num_nodes = 3;
  EXPECT_THROW(solve_hose_robust(ps, cope_options(1.5), empty),
               std::invalid_argument);
}

TEST(Cope, ZeroPredictedSetSizeThrows) {
  // Used to report "empty training trace" although the trace was not empty.
  const PathSet ps = triangle_pathset();
  HoseRobustOptions opt = cope_options(1.5);
  opt.predicted_set_size = 0;
  try {
    solve_hose_robust(ps, opt, stable_trace(3, 25));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("predicted_set_size"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace figret::te
