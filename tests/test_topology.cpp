#include "net/topology.h"

#include <gtest/gtest.h>

#include <set>

namespace figret::net {
namespace {

TEST(Topology, GeantMatchesTable1) {
  const Graph g = geant();
  const TopologySpec spec = table1_spec("GEANT");
  EXPECT_EQ(g.num_nodes(), spec.nodes);
  EXPECT_EQ(g.num_edges(), spec.arcs);  // 23 nodes, 74 arcs
  EXPECT_TRUE(g.strongly_connected());
  // Capacities normalized: min is 1, core class is 4.
  EXPECT_DOUBLE_EQ(g.min_capacity(), 1.0);
  double max_cap = 0.0;
  for (const Edge& e : g.edges()) max_cap = std::max(max_cap, e.capacity);
  EXPECT_DOUBLE_EQ(max_cap, 4.0);
}

TEST(Topology, GeantIsSimpleGraph) {
  const Graph g = geant();
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_TRUE(seen.insert({e.src, e.dst}).second) << "duplicate arc";
  }
}

TEST(Topology, UsCarrierMatchesTable1) {
  const Graph g = uscarrier();
  const TopologySpec spec = table1_spec("UsCarrier");
  EXPECT_EQ(g.num_nodes(), spec.nodes);
  EXPECT_EQ(g.num_edges(), spec.arcs);
  EXPECT_TRUE(g.strongly_connected());
}

TEST(Topology, CogentcoMatchesTable1) {
  const Graph g = cogentco();
  const TopologySpec spec = table1_spec("Cogentco");
  EXPECT_EQ(g.num_nodes(), spec.nodes);
  EXPECT_EQ(g.num_edges(), spec.arcs);
  EXPECT_TRUE(g.strongly_connected());
}

TEST(Topology, SparseWanIsDeterministicPerSeed) {
  const Graph a = sparse_wan(50, 70, 99);
  const Graph b = sparse_wan(50, 70, 99);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).src, b.edge(e).src);
    EXPECT_EQ(a.edge(e).dst, b.edge(e).dst);
    EXPECT_DOUBLE_EQ(a.edge(e).capacity, b.edge(e).capacity);
  }
}

TEST(Topology, SparseWanRejectsTooFewLinks) {
  EXPECT_THROW(sparse_wan(10, 5, 1), std::invalid_argument);
}

TEST(Topology, FullMeshPFabric) {
  const Graph g = full_mesh(9);
  const TopologySpec spec = table1_spec("pFabric");
  EXPECT_EQ(g.num_nodes(), spec.nodes);
  EXPECT_EQ(g.num_edges(), spec.arcs);  // 9 * 8 = 72
  EXPECT_TRUE(g.strongly_connected());
  for (NodeId a = 0; a < 9; ++a) {
    for (NodeId b = 0; b < 9; ++b) {
      if (a != b) {
        EXPECT_NE(g.find_edge(a, b), g.num_edges());
      }
    }
  }
}

TEST(Topology, FullMeshMetaPodLevels) {
  const Graph db = full_mesh(4);
  EXPECT_EQ(db.num_edges(), table1_spec("MetaDB-PoD").arcs);
  const Graph web = full_mesh(8);
  EXPECT_EQ(web.num_edges(), table1_spec("MetaWEB-PoD").arcs);
}

class RandomRegularParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(RandomRegularParam, DegreeExactAndSimple) {
  const auto [n, d] = GetParam();
  const Graph g = random_regular(n, d, 7);
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_EQ(g.num_edges(), n * d);  // d undirected links/node = d arcs out
  std::vector<std::size_t> out_deg(n, 0);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_TRUE(seen.insert({e.src, e.dst}).second);
    ++out_deg[e.src];
  }
  for (std::size_t v = 0; v < n; ++v) EXPECT_EQ(out_deg[v], d);
  EXPECT_TRUE(g.strongly_connected());
}

INSTANTIATE_TEST_SUITE_P(Fabrics, RandomRegularParam,
                         ::testing::Values(std::make_tuple(8, 3),
                                           std::make_tuple(16, 6),
                                           std::make_tuple(24, 8),
                                           std::make_tuple(32, 10)));

TEST(Topology, RandomRegularRejectsBadArgs) {
  EXPECT_THROW(random_regular(4, 4, 1), std::invalid_argument);  // d >= n
  EXPECT_THROW(random_regular(5, 3, 1), std::invalid_argument);  // odd n*d
}

TEST(Topology, Table1SpecKnowsAllRows) {
  for (const char* name :
       {"GEANT", "UsCarrier", "Cogentco", "pFabric", "MetaDB-PoD",
        "MetaDB-ToR", "MetaWEB-PoD", "MetaWEB-ToR"}) {
    const TopologySpec spec = table1_spec(name);
    EXPECT_GT(spec.nodes, 0u);
    EXPECT_GT(spec.arcs, 0u);
  }
  EXPECT_THROW(table1_spec("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace figret::net
