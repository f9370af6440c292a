#pragma once

// Undirected weighted graph with stable edge identifiers.
//
// PCN topology is undirected (a payment channel can forward in both
// directions); per-direction state (balances, prices, queues) lives in
// pcn::Network keyed by (EdgeId, direction). Each edge carries
//   weight   - routing length (hops by default, 1.0), and
//   capacity - total channel funds, used by widest-path / max-flow.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace splicer::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// Adjacency entry: neighbour plus the connecting edge.
struct HalfEdge {
  NodeId to;
  EdgeId edge;
};

class Graph {
 public:
  struct Edge {
    NodeId u;
    NodeId v;
    double weight;
    double capacity;
  };

  explicit Graph(std::size_t node_count);

  [[nodiscard]] std::size_t node_count() const noexcept { return adjacency_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

  /// Adds an undirected edge; returns its id. Parallel edges are allowed
  /// (the PCN model does not create them, but the graph does not forbid).
  EdgeId add_edge(NodeId u, NodeId v, double weight = 1.0, double capacity = 1.0);

  [[nodiscard]] const Edge& edge(EdgeId e) const { return edges_.at(e); }
  [[nodiscard]] std::span<const HalfEdge> neighbors(NodeId n) const {
    return adjacency_.at(n);
  }
  [[nodiscard]] std::size_t degree(NodeId n) const { return adjacency_.at(n).size(); }

  /// The endpoint of `e` that is not `from`.
  [[nodiscard]] NodeId other_end(EdgeId e, NodeId from) const;

  void set_capacity(EdgeId e, double capacity) { edges_.at(e).capacity = capacity; }

  /// The weight shared by every edge when all weights are equal and
  /// positive; 0.0 otherwise (no edges, mixed weights, or non-positive).
  /// Maintained incrementally so shortest-path callers can pick the
  /// uniform-weight fast path without scanning the edge list per query.
  [[nodiscard]] double uniform_positive_weight() const noexcept {
    return uniform_weight_;
  }

  /// First edge between u and v, or kInvalidEdge.
  [[nodiscard]] EdgeId find_edge(NodeId u, NodeId v) const;
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const {
    return find_edge(u, v) != kInvalidEdge;
  }

  /// Globally unique stamp of this graph's edge structure: assigned fresh
  /// (from a process-wide counter) at construction and on every add_edge,
  /// and shared only by copies — equal versions imply equal adjacency.
  /// Traversal kernels key flattened-adjacency caches on it so repeated
  /// queries against the same topology skip the per-node vector chase
  /// (see shortest_path.cpp) without the graph owning any mutable cache.
  [[nodiscard]] std::uint64_t structure_version() const noexcept {
    return version_;
  }

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<HalfEdge>> adjacency_;
  double uniform_weight_ = 0.0;  // see uniform_positive_weight()
  std::uint64_t version_ = 0;    // see structure_version()
};

/// A simple (loop-free) path. `nodes` has one more element than `edges`;
/// `length` is the sum of edge weights. An empty path (s == t) has no edges.
struct Path {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;
  double length = 0.0;

  [[nodiscard]] std::size_t hop_count() const noexcept { return edges.size(); }
  [[nodiscard]] bool empty() const noexcept { return edges.empty(); }
  [[nodiscard]] NodeId source() const { return nodes.front(); }
  [[nodiscard]] NodeId target() const { return nodes.back(); }

  /// Minimum edge capacity along the path; +inf for an empty path.
  [[nodiscard]] double bottleneck(const Graph& g) const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Path& a, const Path& b) {
    return a.nodes == b.nodes && a.edges == b.edges;
  }
};

/// Validates internal consistency (endpoints chain, edges exist); used by
/// tests and debug assertions.
[[nodiscard]] bool is_valid_path(const Graph& g, const Path& p);

}  // namespace splicer::graph
