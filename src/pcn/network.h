#pragma once

// Network state: topology graph + one Channel per edge. Owns a copy of the
// graph so that transformed topologies (multi-star) and raw topologies can
// coexist. Provides the funds-conservation oracle used by tests and debug
// checks.

#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "pcn/channel.h"
#include "pcn/types.h"

namespace splicer::pcn {

class Network {
 public:
  /// Takes the topology and explicit per-side funds (parallel to edges).
  Network(graph::Graph topology, std::vector<Amount> funds_ab,
          std::vector<Amount> funds_ba);

  /// Builds a network with per-side funds sampled from the paper's heavy-
  /// tailed channel-size distribution, multiplied by `fund_scale`
  /// (Fig. 7(a)/8(a) sweep). Also rewrites each edge's `capacity` to the
  /// channel total so path selectors see consistent static data. Throws
  /// std::invalid_argument unless `fund_scale` is finite and >= 0.
  static Network with_sampled_funds(graph::Graph topology, double fund_scale,
                                    common::Rng& rng);

  /// Builds a network whose every side holds exactly `per_side`.
  static Network with_uniform_funds(graph::Graph topology, Amount per_side);

  [[nodiscard]] const graph::Graph& topology() const noexcept { return topology_; }
  [[nodiscard]] std::size_t channel_count() const noexcept { return channels_.size(); }
  [[nodiscard]] std::size_t node_count() const noexcept { return topology_.node_count(); }

  [[nodiscard]] Channel& channel(ChannelId id) { return channels_.at(id); }
  [[nodiscard]] const Channel& channel(ChannelId id) const { return channels_.at(id); }

  /// Direction of edge `id` when leaving `from`.
  [[nodiscard]] Direction direction_from(ChannelId id, NodeId from) const {
    return channels_.at(id).direction_from(from);
  }

  /// Spendable balance for `from` across edge `id`.
  [[nodiscard]] Amount available_from(ChannelId id, NodeId from) const {
    const auto& ch = channels_.at(id);
    return ch.available(ch.direction_from(from));
  }

  /// Node liveness (hostile-world fault injection). Every node starts
  /// online; an offline node refuses new forwarding attempts on all its
  /// channels (in-flight settles/refunds still complete — an outage strands
  /// no funds).
  [[nodiscard]] bool node_online(NodeId node) const {
    return node_online_.at(node) != 0;
  }
  void set_node_online(NodeId node, bool online) {
    node_online_.at(node) = online ? 1 : 0;
  }

  /// A channel accepts new locks: open and both endpoints online. The path
  /// filters (routing/path_filter.h) and the engine's attempt_hop guard
  /// share this predicate.
  [[nodiscard]] bool channel_usable(ChannelId id) const {
    const Channel& ch = channels_.at(id);
    return !ch.is_closed() && node_online(ch.node_a()) && node_online(ch.node_b());
  }

  /// Sum of all balances and locks; constant across lock/settle/refund.
  [[nodiscard]] Amount total_funds() const noexcept;

  /// Current per-direction balances as double token vectors (size =
  /// edge_count), for max-flow / widest-path overrides. forward = u->v.
  [[nodiscard]] std::vector<double> forward_balances_tokens() const;
  [[nodiscard]] std::vector<double> backward_balances_tokens() const;

 private:
  graph::Graph topology_;
  std::vector<Channel> channels_;
  std::vector<std::uint8_t> node_online_;  // 1 = online; sized to node_count
};

}  // namespace splicer::pcn
