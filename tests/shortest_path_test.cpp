#include "graph/shortest_path.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "support/graph_oracles.h"

namespace splicer::graph {
namespace {

Graph diamond() {
  // 0 -1- 1 -1- 3,  0 -1- 2 -5- 3
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 5.0);
  return g;
}

TEST(BfsHops, Distances) {
  const Graph g = diamond();
  const auto hops = bfs_hops(g, 0);
  EXPECT_EQ(hops[0], 0);
  EXPECT_EQ(hops[1], 1);
  EXPECT_EQ(hops[2], 1);
  EXPECT_EQ(hops[3], 2);
}

TEST(BfsHops, UnreachableIsMinusOne) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_EQ(bfs_hops(g, 0)[2], -1);
}

TEST(Dijkstra, PicksCheaperRoute) {
  const Graph g = diamond();
  const auto p = shortest_path(g, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_DOUBLE_EQ(p->length, 2.0);
  EXPECT_TRUE(is_valid_path(g, *p));
}

TEST(Dijkstra, WeightOverride) {
  const Graph g = diamond();
  std::vector<double> weights{10.0, 10.0, 1.0, 1.0};  // make lower route cheap
  DijkstraOptions options;
  options.weights = &weights;
  const auto p = shortest_path(g, 0, 3, options);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 2, 3}));
}

TEST(Dijkstra, DisabledEdgeForcesDetour) {
  const Graph g = diamond();
  std::vector<char> disabled(g.edge_count(), 0);
  disabled[0] = 1;  // kill 0-1
  DijkstraOptions options;
  options.disabled_edges = &disabled;
  const auto p = shortest_path(g, 0, 3, options);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 2, 3}));
}

TEST(Dijkstra, DisabledNodeForcesDetour) {
  const Graph g = diamond();
  std::vector<char> disabled(g.node_count(), 0);
  disabled[1] = 1;
  DijkstraOptions options;
  options.disabled_nodes = &disabled;
  const auto p = shortest_path(g, 0, 3, options);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 2, 3}));
}

TEST(Dijkstra, UnreachableReturnsNullopt) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(shortest_path(g, 0, 2).has_value());
}

TEST(Dijkstra, TrivialSourceEqualsTarget) {
  const Graph g = diamond();
  const auto p = shortest_path(g, 2, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(Dijkstra, NegativeWeightThrows) {
  Graph g(2);
  g.add_edge(0, 1, -1.0);
  EXPECT_THROW((void)shortest_path(g, 0, 1), std::invalid_argument);
}

// Property: Dijkstra distances equal Bellman-Ford on random graphs.
class DijkstraPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraPropertyTest, MatchesBellmanFord) {
  common::Rng rng(GetParam());
  const Graph topology = watts_strogatz(60, 6, 0.3, rng);
  Graph g(topology.node_count());
  for (EdgeId e = 0; e < topology.edge_count(); ++e) {
    g.add_edge(topology.edge(e).u, topology.edge(e).v, rng.uniform(0.1, 10.0));
  }
  const NodeId src = static_cast<NodeId>(rng.index(g.node_count()));
  const auto result = dijkstra(g, src);
  const auto reference = bellman_ford(g, src);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_NEAR(result.dist[v], reference[v], 1e-9) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ExtractPath, ReconstructionIsConsistent) {
  common::Rng rng(99);
  const Graph g = watts_strogatz(80, 6, 0.2, rng);
  const auto result = dijkstra(g, 0);
  for (NodeId v = 1; v < g.node_count(); v += 7) {
    const auto p = extract_path(g, result, 0, v);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(is_valid_path(g, *p));
    EXPECT_EQ(p->source(), 0u);
    EXPECT_EQ(p->target(), v);
    EXPECT_DOUBLE_EQ(p->length, result.dist[v]);
  }
}

}  // namespace
}  // namespace splicer::graph
