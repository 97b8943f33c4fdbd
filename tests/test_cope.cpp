#include "te/oblivious.h"

#include <gtest/gtest.h>

#include <algorithm>
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
  return opt;
}

TEST(Cope, EnvelopeHolds) {
  const PathSet ps = triangle_pathset();
  const HoseRobustOptions opt = cope_options(1.5);
  const HoseRobustResult r = solve_hose_robust(ps, opt, stable_trace(3, 40));
  ASSERT_EQ(r.status, lp::Status::kOptimal);
  EXPECT_TRUE(valid_config(ps, r.config));
  // Worst-case MLU within the penalty envelope of the oblivious optimum.
  EXPECT_LE(r.worst_mlu, opt.penalty_ratio * r.oblivious_mlu * (1.0 + 1e-9));
}

struct CopeCase {
  const char* name;
  PathSet (*build)();
  double master_mlu;  // U at beta = 1.5 on stable_trace(n, 40)
};

class CopeOptimum : public ::testing::TestWithParam<CopeCase> {};

TEST_P(CopeOptimum, PinsTheOptimumInsideTheEnvelope) {
  const PathSet ps = GetParam().build();
  const HoseRobustOptions opt = cope_options(1.5);
  const HoseRobustResult r =
      solve_hose_robust(ps, opt, stable_trace(ps.num_nodes(), 40));
  ASSERT_EQ(r.status, lp::Status::kOptimal);
  EXPECT_TRUE(valid_config(ps, r.config));
  EXPECT_NEAR(r.master_mlu, GetParam().master_mlu, 1e-6);
  EXPECT_EQ(r.worst_mlu, worst_case_mlu_hose(ps, r.config));
  EXPECT_LE(r.worst_mlu, opt.penalty_ratio * r.oblivious_mlu * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, CopeOptimum,
    ::testing::Values(CopeCase{"triangle", triangle_pathset, 0.121933},
                      CopeCase{"mesh4", [] { return mesh_pathset(4); },
                               0.140441},
                      CopeCase{"mesh5", [] { return mesh_pathset(5); },
                               0.107555}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Cope, BurstyNineNodeMeshSolvesToThePeakMlu) {
  // fig05's pFabric shape. With a U-row per predicted demand and edge this
  // LP stalls past the pivot cap and ends kNumerical; the peak's rows alone
  // bound the same set, and U is exactly the peak's MLU.
  const net::Graph g = net::full_mesh(9);
  const PathSet ps = PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const traffic::TrafficTrace trace = traffic::pfabric_trace(9, 260, 109);
  const traffic::TrafficTrace train = trace.slice(0, trace.size() * 3 / 4);
  const HoseRobustOptions opt = cope_options(2.0);
  const HoseRobustResult r = solve_hose_robust(ps, opt, train);
  ASSERT_EQ(r.status, lp::Status::kOptimal);
  EXPECT_LE(r.worst_mlu, opt.penalty_ratio * r.oblivious_mlu * (1.0 + 1e-9));
  traffic::DemandMatrix peak(9);
  for (std::size_t t = train.size() - opt.predicted_set_size; t < train.size();
       ++t)
    for (std::size_t p = 0; p < peak.size(); ++p)
      peak[p] = std::max(peak[p], train[t][p]);
  EXPECT_NEAR(r.master_mlu, mlu(ps, peak, r.config), 1e-9 * r.master_mlu);
}

TEST(Cope, UnitPenaltyRatioKeepsTheObliviousWorstCase) {
  // At beta = 1 the envelope is the oblivious optimum itself. COPE either
  // meets it or reports kInfeasible and keeps the oblivious result.
  for (const PathSet& ps : {triangle_pathset(), mesh_pathset(4)}) {
    const auto train = stable_trace(ps.num_nodes(), 30);
    const HoseRobustResult obl = solve_hose_robust(ps, cope_options(0.0));
    const HoseRobustResult r = solve_hose_robust(ps, cope_options(1.0), train);
    if (r.status == lp::Status::kInfeasible) {
      EXPECT_EQ(r.config, obl.config);
    } else {
      ASSERT_EQ(r.status, lp::Status::kOptimal);
    }
    EXPECT_LE(r.worst_mlu, r.oblivious_mlu * (1.0 + 1e-9));
  }
}

TEST(Cope, PredictedPerformanceBeatsOblivious) {
  // COPE's whole point: on the predicted demand set it outperforms pure
  // oblivious routing (which optimizes only the worst case).
  const PathSet ps = triangle_pathset();
  const auto train = stable_trace(3, 40);
  const HoseRobustOptions opt = cope_options(2.0);
  const HoseRobustResult cope = solve_hose_robust(ps, opt, train);
  ASSERT_EQ(cope.status, lp::Status::kOptimal);
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
  ASSERT_EQ(r.status, lp::Status::kOptimal);

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
    ASSERT_EQ(obl.status, lp::Status::kOptimal);
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

TEST(Cope, RejectsTraceOfAnotherTopology) {
  // The predicted set is read pair by pair for the path set's node count: a
  // smaller trace used to be read out of bounds. Rejected before any LP.
  const PathSet ps = mesh_pathset(4);
  EXPECT_THROW(solve_hose_robust(ps, cope_options(1.5), stable_trace(3, 20)),
               std::invalid_argument);
  // A trace that claims the right size but holds a smaller snapshot.
  traffic::TrafficTrace mixed = stable_trace(4, 20);
  mixed.snapshots[5] = traffic::DemandMatrix(3, 1.0);
  EXPECT_THROW(solve_hose_robust(ps, cope_options(1.5), mixed),
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
