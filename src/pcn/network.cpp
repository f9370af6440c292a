#include "pcn/network.h"

#include <cmath>
#include <stdexcept>

#include "common/samplers.h"

namespace splicer::pcn {

Network::Network(graph::Graph topology, std::vector<Amount> funds_ab,
                 std::vector<Amount> funds_ba)
    : topology_(std::move(topology)) {
  if (funds_ab.size() != topology_.edge_count() ||
      funds_ba.size() != topology_.edge_count()) {
    throw std::invalid_argument("Network: funds vectors must match edge count");
  }
  node_online_.assign(topology_.node_count(), 1);
  channels_.reserve(topology_.edge_count());
  for (ChannelId e = 0; e < topology_.edge_count(); ++e) {
    const auto& edge = topology_.edge(e);
    channels_.emplace_back(edge.u, edge.v, funds_ab[e], funds_ba[e]);
    topology_.set_capacity(e, common::to_tokens(funds_ab[e] + funds_ba[e]));
  }
}

Network Network::with_sampled_funds(graph::Graph topology, double fund_scale,
                                    common::Rng& rng) {
  // A non-finite scale would convert a non-finite token value to Amount.
  if (!(std::isfinite(fund_scale) && fund_scale >= 0.0)) {
    throw std::invalid_argument("Network: fund_scale must be finite and >= 0");
  }
  const auto sampler = common::make_channel_size_sampler();
  std::vector<Amount> ab(topology.edge_count());
  std::vector<Amount> ba(topology.edge_count());
  for (std::size_t e = 0; e < topology.edge_count(); ++e) {
    ab[e] = common::tokens(sampler.sample(rng) * fund_scale);
    ba[e] = common::tokens(sampler.sample(rng) * fund_scale);
  }
  return Network(std::move(topology), std::move(ab), std::move(ba));
}

Network Network::with_uniform_funds(graph::Graph topology, Amount per_side) {
  std::vector<Amount> ab(topology.edge_count(), per_side);
  std::vector<Amount> ba(topology.edge_count(), per_side);
  return Network(std::move(topology), std::move(ab), std::move(ba));
}

Amount Network::total_funds() const noexcept {
  Amount total = 0;
  for (const auto& ch : channels_) total += ch.total();
  return total;
}

std::vector<double> Network::forward_balances_tokens() const {
  std::vector<double> out(channels_.size());
  for (std::size_t e = 0; e < channels_.size(); ++e) {
    out[e] = common::to_tokens(channels_[e].available(Direction::kForward));
  }
  return out;
}

std::vector<double> Network::backward_balances_tokens() const {
  std::vector<double> out(channels_.size());
  for (std::size_t e = 0; e < channels_.size(); ++e) {
    out[e] = common::to_tokens(channels_[e].available(Direction::kBackward));
  }
  return out;
}

}  // namespace splicer::pcn
