#include "graph/widest_path.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>

namespace splicer::graph {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

[[nodiscard]] double capacity_of(const Graph& g, EdgeId e,
                                 const WidestOptions& options) {
  return options.capacities ? (*options.capacities)[e] : g.edge(e).capacity;
}
}  // namespace

std::optional<Path> widest_path(const Graph& g, NodeId src, NodeId dst,
                                const WidestOptions& options) {
  if (src == dst) {
    Path trivial;
    trivial.nodes.push_back(src);
    return trivial;
  }
  std::vector<double> width(g.node_count(), -1.0);
  std::vector<int> hops(g.node_count(), 0);
  std::vector<NodeId> parent(g.node_count(), kInvalidNode);
  std::vector<EdgeId> parent_edge(g.node_count(), kInvalidEdge);

  // Max-heap on (width, -hops).
  using Item = std::tuple<double, int, NodeId>;
  std::priority_queue<Item> heap;
  width.at(src) = kInf;
  heap.emplace(kInf, 0, src);

  while (!heap.empty()) {
    const auto [w, negated_hops, u] = heap.top();
    heap.pop();
    if (w < width[u] || (w == width[u] && -negated_hops > hops[u])) continue;
    for (const auto& half : g.neighbors(u)) {
      if (options.disabled_edges && (*options.disabled_edges)[half.edge]) continue;
      const double through = std::min(w, capacity_of(g, half.edge, options));
      const int nh = hops[u] + 1;
      if (through > width[half.to] ||
          (through == width[half.to] && nh < hops[half.to])) {
        width[half.to] = through;
        hops[half.to] = nh;
        parent[half.to] = u;
        parent_edge[half.to] = half.edge;
        heap.emplace(through, -nh, half.to);
      }
    }
  }
  if (width[dst] < 0.0) return std::nullopt;

  Path path;
  NodeId cur = dst;
  while (cur != src) {
    path.nodes.push_back(cur);
    path.edges.push_back(parent_edge[cur]);
    cur = parent[cur];
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  path.length = static_cast<double>(path.edges.size());
  return path;
}

}  // namespace splicer::graph
