#include "support/graph_oracles.h"

#include <algorithm>
#include <limits>

namespace splicer::graph {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

void dfs_widest(const Graph& g, NodeId u, NodeId dst, double bottleneck,
                std::vector<char>& visited, double& best) {
  if (u == dst) {
    best = std::max(best, bottleneck);
    return;
  }
  for (const auto& half : g.neighbors(u)) {
    if (visited[half.to]) continue;
    visited[half.to] = 1;
    dfs_widest(g, half.to, dst,
               std::min(bottleneck, g.edge(half.edge).capacity), visited, best);
    visited[half.to] = 0;
  }
}
}  // namespace

std::vector<double> bellman_ford(const Graph& g, NodeId src) {
  std::vector<double> dist(g.node_count(), kInf);
  dist.at(src) = 0.0;
  for (std::size_t round = 0; round + 1 < g.node_count(); ++round) {
    bool changed = false;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const auto& rec = g.edge(e);
      if (dist[rec.u] + rec.weight < dist[rec.v]) {
        dist[rec.v] = dist[rec.u] + rec.weight;
        changed = true;
      }
      if (dist[rec.v] + rec.weight < dist[rec.u]) {
        dist[rec.u] = dist[rec.v] + rec.weight;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

double brute_force_widest_bottleneck(const Graph& g, NodeId src, NodeId dst) {
  std::vector<char> visited(g.node_count(), 0);
  visited.at(src) = 1;
  double best = -1.0;
  dfs_widest(g, src, dst, kInf, visited, best);
  return best;
}

}  // namespace splicer::graph
