#pragma once

// Brute-force graph oracles for the property tests: each recomputes what a
// production kernel returns by a slow, obviously-correct method.

#include <vector>

#include "graph/graph.h"

namespace splicer::graph {

/// Bellman-Ford distances from `src` under the edge weights (O(n*m)).
[[nodiscard]] std::vector<double> bellman_ford(const Graph& g, NodeId src);

/// Widest bottleneck src->dst by DFS over every simple path (exponential;
/// only for tiny graphs); -1 if dst is unreachable.
[[nodiscard]] double brute_force_widest_bottleneck(const Graph& g, NodeId src,
                                                   NodeId dst);

}  // namespace splicer::graph
