#include "te/failover.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/topology.h"
#include "net/yen.h"

namespace figret::te {
namespace {

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

TEST(SurvivingPaths, MarksPathsThroughFailedEdges) {
  const net::Graph g = net::full_mesh(4);
  const PathSet ps = PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const net::EdgeId failed = g.find_edge(0, 1);
  const auto alive = surviving_paths(ps, {failed});
  for (std::size_t pid = 0; pid < ps.num_paths(); ++pid) {
    bool uses = false;
    for (net::EdgeId e : ps.path_edges(pid)) uses |= e == failed;
    EXPECT_EQ(alive[pid], !uses);
  }

  // The in-place form rewrites a reused buffer of any size and contents.
  for (const std::size_t size : {std::size_t{3}, ps.num_paths() + 7}) {
    std::vector<bool> reused(size, false);
    surviving_paths_into(ps, {failed}, reused);
    EXPECT_EQ(reused, alive) << "reused buffer of size " << size;
  }

  // An out-of-range edge id throws, and leaves the buffer untouched.
  const auto past_end = static_cast<net::EdgeId>(ps.num_edges());
  EXPECT_THROW(surviving_paths(ps, {past_end}), std::out_of_range);
  std::vector<bool> kept = alive;
  EXPECT_THROW(surviving_paths_into(ps, {failed, past_end}, kept),
               std::out_of_range);
  EXPECT_EQ(kept, alive);
}

TEST(Reroute, PaperProportionalExample) {
  // Paper §4.5: ratios (0.5, 0.3, 0.2) with the first path failed become
  // (0, 0.6, 0.4).
  const PathSet ps = mesh_pathset(4);
  TeConfig cfg = uniform_config(ps);
  const std::size_t pr = 0;
  const std::size_t b = ps.pair_begin(pr);
  cfg[b] = 0.5;
  cfg[b + 1] = 0.3;
  cfg[b + 2] = 0.2;
  std::vector<bool> alive(ps.num_paths(), true);
  alive[b] = false;
  const TeConfig out = reroute(ps, cfg, alive);
  EXPECT_DOUBLE_EQ(out[b], 0.0);
  EXPECT_NEAR(out[b + 1], 0.6, 1e-12);
  EXPECT_NEAR(out[b + 2], 0.4, 1e-12);
}

TEST(Reroute, PaperEqualSplitExample) {
  // Paper §4.5: ratios (1, 0, 0) with the first path failed become
  // (0, 0.5, 0.5).
  const PathSet ps = mesh_pathset(4);
  TeConfig cfg = uniform_config(ps);
  const std::size_t b = ps.pair_begin(0);
  cfg[b] = 1.0;
  cfg[b + 1] = 0.0;
  cfg[b + 2] = 0.0;
  std::vector<bool> alive(ps.num_paths(), true);
  alive[b] = false;
  const TeConfig out = reroute(ps, cfg, alive);
  EXPECT_DOUBLE_EQ(out[b], 0.0);
  EXPECT_NEAR(out[b + 1], 0.5, 1e-12);
  EXPECT_NEAR(out[b + 2], 0.5, 1e-12);
}

TEST(Reroute, NoFailuresIsIdentity) {
  const PathSet ps = mesh_pathset(4);
  const TeConfig cfg = uniform_config(ps);
  const std::vector<bool> alive(ps.num_paths(), true);
  const TeConfig out = reroute(ps, cfg, alive);
  for (std::size_t p = 0; p < cfg.size(); ++p)
    EXPECT_DOUBLE_EQ(out[p], cfg[p]);
}

TEST(Reroute, PreservesValidityForSurvivingPairs) {
  const net::Graph g = net::full_mesh(5);
  const PathSet ps = PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const auto failed = sample_safe_failures(ps, 2, 7);
  const auto alive = surviving_paths(ps, failed);
  const TeConfig out = reroute(ps, uniform_config(ps), alive);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    double sum = 0.0;
    for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p) {
      if (!alive[p]) {
        EXPECT_DOUBLE_EQ(out[p], 0.0);
      }
      sum += out[p];
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(SampleSafeFailures, RejectsCountAboveEdgeCount) {
  // full_mesh(3) has 6 arcs: asking for 7 distinct ones used to spin forever.
  const PathSet ps = mesh_pathset(3);
  ASSERT_EQ(ps.num_edges(), 6u);
  EXPECT_THROW(sample_safe_failures(ps, 7, 1), std::invalid_argument);
}

TEST(Reroute, DisconnectedPairGetsZeroRatios) {
  // A 2-node network with a single bidirectional link: failing 0->1 leaves
  // pair (0,1) with no path at all.
  net::Graph g(2);
  g.add_link(0, 1, 1.0);
  const PathSet ps = PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const net::EdgeId e01 = g.find_edge(0, 1);
  const auto alive = surviving_paths(ps, {e01});
  const TeConfig out = reroute(ps, uniform_config(ps), alive);
  const std::size_t pr01 = traffic::pair_index(2, 0, 1);
  for (std::size_t p = ps.pair_begin(pr01); p < ps.pair_end(pr01); ++p)
    EXPECT_DOUBLE_EQ(out[p], 0.0);
  // The reverse pair is untouched.
  const std::size_t pr10 = traffic::pair_index(2, 1, 0);
  double sum = 0.0;
  for (std::size_t p = ps.pair_begin(pr10); p < ps.pair_end(pr10); ++p)
    sum += out[p];
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

class SafeFailureParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SafeFailureParam, EveryPairKeepsAPath) {
  const net::Graph g = net::geant();
  const PathSet ps = PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const auto failed = sample_safe_failures(ps, GetParam(), 99);
  EXPECT_EQ(failed.size(), GetParam());
  const auto alive = surviving_paths(ps, failed);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    bool any = false;
    for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
      any |= alive[p];
    EXPECT_TRUE(any) << "pair " << pr << " disconnected";
  }
}

INSTANTIATE_TEST_SUITE_P(FailureCounts, SafeFailureParam,
                         ::testing::Values(1u, 2u, 3u));

TEST(Reroute, AllPathsDeadPairIsAccountedAsDropped) {
  // Regression for the §4.5 edge case: a pair whose every candidate path
  // died must surface in RerouteStats (zero ratios, weight counted as
  // dropped) instead of being renormalized toward a zero denominator.
  net::Graph g(2);
  g.add_link(0, 1, 1.0);
  const PathSet ps = PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const net::EdgeId e01 = g.find_edge(0, 1);
  const auto alive = surviving_paths(ps, {e01});
  TeConfig out;
  RerouteStats stats;
  reroute_into(ps, uniform_config(ps), alive, out, &stats);
  EXPECT_EQ(stats.disconnected_pairs, 1u);
  EXPECT_NEAR(stats.dropped_weight, 1.0, 1e-12);
  const std::size_t pr01 = traffic::pair_index(2, 0, 1);
  for (std::size_t p = ps.pair_begin(pr01); p < ps.pair_end(pr01); ++p)
    EXPECT_DOUBLE_EQ(out[p], 0.0);
}

TEST(Reroute, StatsAreOverwrittenNotAccumulated) {
  net::Graph g(2);
  g.add_link(0, 1, 1.0);
  const PathSet ps = PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const auto dead = surviving_paths(ps, {g.find_edge(0, 1)});
  const std::vector<bool> all_alive(ps.num_paths(), true);
  TeConfig out;
  RerouteStats stats;
  reroute_into(ps, uniform_config(ps), dead, out, &stats);
  ASSERT_EQ(stats.disconnected_pairs, 1u);
  // A later healthy call must reset the counters, not add to them.
  reroute_into(ps, uniform_config(ps), all_alive, out, &stats);
  EXPECT_EQ(stats.disconnected_pairs, 0u);
  EXPECT_DOUBLE_EQ(stats.dropped_weight, 0.0);
}

TEST(DisconnectedPairs, MatchesAliveScan) {
  const net::Graph g = net::full_mesh(4);
  const PathSet ps = PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  // Fail every arc touching node 0: all six pairs with endpoint 0 go dark.
  std::vector<net::EdgeId> failed;
  for (net::EdgeId e = 0; e < g.num_edges(); ++e)
    if (g.edge(e).src == 0 || g.edge(e).dst == 0) failed.push_back(e);
  const auto alive = surviving_paths(ps, failed);
  std::vector<std::uint32_t> dead_pairs;
  disconnected_pairs_into(ps, alive, dead_pairs);
  std::vector<std::uint32_t> expect;
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    bool any = false;
    for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
      any |= alive[p];
    if (!any) expect.push_back(static_cast<std::uint32_t>(pr));
  }
  EXPECT_EQ(dead_pairs, expect);
  EXPECT_EQ(dead_pairs.size(), 6u);
  // And the healthy mask yields none (also exercises the resize-down path).
  disconnected_pairs_into(ps, std::vector<bool>(ps.num_paths(), true),
                          dead_pairs);
  EXPECT_TRUE(dead_pairs.empty());
}

TEST(SampleSafeFailures, DistinctEdges) {
  const PathSet ps = mesh_pathset(5);
  const auto failed = sample_safe_failures(ps, 3, 1);
  EXPECT_EQ(failed.size(), 3u);
  EXPECT_NE(failed[0], failed[1]);
  EXPECT_NE(failed[0], failed[2]);
  EXPECT_NE(failed[1], failed[2]);
}

}  // namespace
}  // namespace figret::te
