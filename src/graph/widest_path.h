#pragma once

// Widest (maximum-bottleneck) paths. Table II's best path type "EDW"
// (edge-disjoint widest) is built from this primitive: the paper finds that
// with heavy-tailed channel sizes, widest paths utilise network capacity
// best.

#include <optional>
#include <vector>

#include "graph/graph.h"

namespace splicer::graph {

struct WidestOptions {
  /// If non-null, edge e uses (*capacities)[e] instead of g.edge(e).capacity.
  const std::vector<double>* capacities = nullptr;
  const std::vector<char>* disabled_edges = nullptr;
};

/// Path maximising the minimum capacity along it (ties broken toward fewer
/// hops). nullopt if dst unreachable. Dijkstra on the (max, min) semiring.
[[nodiscard]] std::optional<Path> widest_path(const Graph& g, NodeId src,
                                              NodeId dst,
                                              const WidestOptions& options = {});

}  // namespace splicer::graph
