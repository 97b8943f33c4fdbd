// The TEAL-like baseline: FigretScheme under teal_options().
#include <gtest/gtest.h>

#include "net/topology.h"
#include "net/yen.h"
#include "te/figret.h"
#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "traffic/generators.h"

namespace figret::te {
namespace {

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

FigretOptions fast_options() {
  FigretOptions opt;
  opt.hidden = {64, 64};
  opt.epochs = 10;
  return teal_options(opt);
}

TEST(TealLike, LifecycleGuards) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options(), "TEAL");
  EXPECT_EQ(scheme.name(), "TEAL");
  std::vector<traffic::DemandMatrix> h(1, traffic::DemandMatrix(4, 1.0));
  EXPECT_THROW(scheme.advise(h), std::logic_error);

  traffic::TrafficTrace empty;
  empty.num_nodes = 4;
  EXPECT_THROW(scheme.fit(empty), std::invalid_argument);
}

TEST(TealLike, AdviseProducesValidConfig) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options(), "TEAL");
  const auto trace = traffic::dc_tor_trace(4, 80, 3);
  scheme.fit(trace);
  std::vector<traffic::DemandMatrix> h{trace[trace.size() - 1]};
  const TeConfig cfg = scheme.advise(h);
  EXPECT_TRUE(valid_config(ps, cfg));
}

TEST(TealLike, TailoredToSeenDemandOnStableTraffic) {
  // TEAL optimizes for the demand it is shown: on the demand itself the MLU
  // should be near optimal after training on stable traffic.
  const PathSet ps = mesh_pathset(4);
  FigretOptions opt = fast_options();
  opt.epochs = 30;
  FigretScheme scheme(ps, opt, "TEAL");
  const auto trace = traffic::gravity_trace(4, 120, 5);
  scheme.fit(trace);

  double ratio = 0.0;
  int count = 0;
  for (std::size_t t = trace.size() - 10; t < trace.size(); ++t) {
    std::vector<traffic::DemandMatrix> h{trace[t]};
    const TeConfig cfg = scheme.advise(h);
    const MluLpResult lp = solve_mlu_lp(ps, trace[t]);
    ASSERT_TRUE(lp.optimal());
    ratio += mlu(ps, trace[t], cfg) / lp.mlu;
    ++count;
  }
  EXPECT_LT(ratio / count, 1.4);
}

TEST(TealLike, DegradesUnderUnexpectedBurst) {
  // The paper's Fig 5 observation: a config tailored to the previous
  // snapshot underperforms when the next snapshot bursts.
  const PathSet ps = mesh_pathset(4);
  FigretOptions opt = fast_options();
  opt.epochs = 25;
  FigretScheme scheme(ps, opt, "TEAL");
  const auto trace = traffic::gravity_trace(4, 120, 7);
  scheme.fit(trace);

  // Tailor to a normal snapshot, then hit it with a burst on one pair.
  std::vector<traffic::DemandMatrix> h{trace[trace.size() - 1]};
  const TeConfig cfg = scheme.advise(h);
  traffic::DemandMatrix burst = trace[trace.size() - 1];
  burst[0] *= 10.0;
  const MluLpResult lp = solve_mlu_lp(ps, burst);
  ASSERT_TRUE(lp.optimal());
  // Substantially worse than the omniscient optimum on the burst snapshot.
  EXPECT_GT(mlu(ps, burst, cfg), lp.mlu * 1.05);
}

TEST(TealLike, DeterministicGivenSeed) {
  const PathSet ps = mesh_pathset(4);
  const auto trace = traffic::dc_tor_trace(4, 60, 11);
  FigretScheme a(ps, fast_options(), "TEAL");
  FigretScheme b(ps, fast_options(), "TEAL");
  a.fit(trace);
  b.fit(trace);
  std::vector<traffic::DemandMatrix> h{trace[trace.size() - 1]};
  const TeConfig ca = a.advise(h);
  const TeConfig cb = b.advise(h);
  for (std::size_t p = 0; p < ca.size(); ++p) EXPECT_DOUBLE_EQ(ca[p], cb[p]);
}

}  // namespace
}  // namespace figret::te
