#pragma once

// Shortest-path primitives: BFS hop counts, Dijkstra with optional per-edge
// weight overrides and edge masks (the masks are what Yen's algorithm and
// the edge-disjoint path selectors build on), and Bellman-Ford as an
// independent oracle for property tests.

#include <optional>
#include <vector>

#include "graph/graph.h"

namespace splicer::graph {

/// Hop distance from `src` to every node; -1 where unreachable.
[[nodiscard]] std::vector<int> bfs_hops(const Graph& g, NodeId src);

/// Per-call options for dijkstra().
struct DijkstraOptions {
  /// If non-null, edge e uses (*weights)[e] instead of g.edge(e).weight.
  const std::vector<double>* weights = nullptr;
  /// If non-null, edges with (*disabled_edges)[e] are skipped.
  const std::vector<char>* disabled_edges = nullptr;
  /// If non-null, nodes with (*disabled_nodes)[n] cannot be traversed
  /// (source is always allowed to start).
  const std::vector<char>* disabled_nodes = nullptr;
  /// If set, the search stops once this node is settled (popped with its
  /// final distance). A settled node's parent chain is final, so the
  /// extracted src->stop_at path is bit-identical to a full run — only
  /// dist/parent entries of nodes farther than stop_at are left unset.
  /// shortest_path() sets this; single-source callers leave it invalid.
  NodeId stop_at = kInvalidNode;
};

struct DijkstraResult {
  std::vector<double> dist;       // +inf where unreachable
  std::vector<NodeId> parent;     // kInvalidNode at source/unreachable
  std::vector<EdgeId> parent_edge;
};

/// Non-negative weights required (checked in debug; negative weights throw).
[[nodiscard]] DijkstraResult dijkstra(const Graph& g, NodeId src,
                                      const DijkstraOptions& options = {});

/// Reconstructs the path src->dst from a DijkstraResult; nullopt if
/// unreachable. `length` is re-accumulated from the effective weights.
[[nodiscard]] std::optional<Path> extract_path(const Graph& g,
                                               const DijkstraResult& result,
                                               NodeId src, NodeId dst);

/// One-shot shortest path.
[[nodiscard]] std::optional<Path> shortest_path(const Graph& g, NodeId src,
                                                NodeId dst,
                                                const DijkstraOptions& options = {});

}  // namespace splicer::graph
