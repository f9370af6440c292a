#include "graph/graph.h"

#include <gtest/gtest.h>

namespace splicer::graph {
namespace {

TEST(Graph, AddEdgeCreatesAdjacency) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1, 2.0, 7.0);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.edge(e).weight, 2.0);
  EXPECT_EQ(g.edge(e).capacity, 7.0);
}

TEST(Graph, OtherEnd) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 2);
  EXPECT_EQ(g.other_end(e, 0), 2u);
  EXPECT_EQ(g.other_end(e, 2), 0u);
  EXPECT_THROW((void)g.other_end(e, 1), std::invalid_argument);
}

TEST(Graph, SelfLoopRejected) {
  Graph g(2);
  EXPECT_THROW((void)g.add_edge(1, 1), std::invalid_argument);
}

TEST(Graph, OutOfRangeNodeRejected) {
  Graph g(2);
  EXPECT_THROW((void)g.add_edge(0, 2), std::out_of_range);
}

TEST(Graph, FindEdge) {
  Graph g(4);
  const EdgeId e = g.add_edge(1, 3);
  EXPECT_EQ(g.find_edge(1, 3), e);
  EXPECT_EQ(g.find_edge(3, 1), e);
  EXPECT_EQ(g.find_edge(0, 1), kInvalidEdge);
  EXPECT_TRUE(g.has_edge(1, 3));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, ParallelEdgesAllowed) {
  Graph g(2);
  const EdgeId a = g.add_edge(0, 1);
  const EdgeId b = g.add_edge(0, 1);
  EXPECT_NE(a, b);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(Graph, SetCapacity) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1);
  g.set_capacity(e, 9.0);
  EXPECT_EQ(g.edge(e).capacity, 9.0);
}

TEST(Path, BottleneckIsMinimumCapacity) {
  Graph g(3);
  const EdgeId e1 = g.add_edge(0, 1, 1.0, 10.0);
  const EdgeId e2 = g.add_edge(1, 2, 1.0, 3.0);
  Path p{{0, 1, 2}, {e1, e2}, 2.0};
  EXPECT_DOUBLE_EQ(p.bottleneck(g), 3.0);
}

TEST(Path, ValidityChecks) {
  Graph g(4);
  const EdgeId e1 = g.add_edge(0, 1);
  const EdgeId e2 = g.add_edge(1, 2);
  const EdgeId e3 = g.add_edge(2, 0);

  EXPECT_TRUE(is_valid_path(g, Path{{0, 1, 2}, {e1, e2}, 2.0}));
  // Wrong edge order.
  EXPECT_FALSE(is_valid_path(g, Path{{0, 1, 2}, {e2, e1}, 2.0}));
  // Node/edge count mismatch.
  EXPECT_FALSE(is_valid_path(g, Path{{0, 1}, {e1, e2}, 2.0}));
  // Revisiting a node (non-simple).
  EXPECT_FALSE(is_valid_path(g, Path{{0, 1, 2, 0, 1}, {e1, e2, e3, e1}, 4.0}));
}

TEST(Path, ToStringShowsNodes) {
  Path p{{3, 1, 4}, {0, 1}, 2.0};
  EXPECT_EQ(p.to_string(), "3 -> 1 -> 4");
}

TEST(Path, AccessorsAndEquality) {
  Path p{{5, 6}, {0}, 1.0};
  EXPECT_EQ(p.source(), 5u);
  EXPECT_EQ(p.target(), 6u);
  EXPECT_EQ(p.hop_count(), 1u);
  EXPECT_FALSE(p.empty());
  Path q = p;
  EXPECT_EQ(p, q);
}

}  // namespace
}  // namespace splicer::graph
