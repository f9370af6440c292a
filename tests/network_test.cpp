#include "pcn/network.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/stats.h"
#include "graph/generators.h"

namespace splicer::pcn {
namespace {

using common::whole_tokens;

TEST(Network, UniformFunds) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const Network net = Network::with_uniform_funds(std::move(g), whole_tokens(5));
  EXPECT_EQ(net.channel_count(), 2u);
  EXPECT_EQ(net.total_funds(), whole_tokens(20));
  EXPECT_EQ(net.available_from(0, 0), whole_tokens(5));
}

TEST(Network, FundsVectorSizeValidated) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(Network(std::move(g), {1, 2}, {1}), std::invalid_argument);
}

TEST(Network, CapacityMirrorsChannelTotals) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  const Network net(std::move(g), {whole_tokens(3)}, {whole_tokens(7)});
  EXPECT_DOUBLE_EQ(net.topology().edge(0).capacity, 10.0);
  EXPECT_EQ(net.channel(0).capacity(), whole_tokens(10));
}

TEST(Network, SampledFundsMatchCalibration) {
  common::Rng rng(1);
  auto g = graph::watts_strogatz(300, 8, 0.15, rng);
  const Network net = Network::with_sampled_funds(std::move(g), 1.0, rng);
  common::RunningStats side_tokens;
  for (ChannelId c = 0; c < net.channel_count(); ++c) {
    side_tokens.add(common::to_tokens(net.channel(c).available(Direction::kForward)));
    side_tokens.add(common::to_tokens(net.channel(c).available(Direction::kBackward)));
  }
  EXPECT_GE(side_tokens.min(), 10.0);             // paper: min channel size 10
  EXPECT_NEAR(side_tokens.mean(), 403.0, 60.0);   // paper: mean 403
}

TEST(Network, FundScaleMultiplies) {
  common::Rng rng1(2), rng2(2);
  auto g1 = graph::watts_strogatz(100, 6, 0.15, rng1);
  auto g2 = graph::watts_strogatz(100, 6, 0.15, rng2);
  const Network base = Network::with_sampled_funds(std::move(g1), 1.0, rng1);
  const Network doubled = Network::with_sampled_funds(std::move(g2), 2.0, rng2);
  // Identical topology + rng stream, scaled funds.
  EXPECT_NEAR(static_cast<double>(doubled.total_funds()),
              2.0 * static_cast<double>(base.total_funds()),
              static_cast<double>(base.total_funds()) * 0.01);
}

TEST(Network, FundScaleMustBeFiniteAndNonNegative) {
  // Rejected before sampling, by name: a non-finite scale would reach the
  // double -> Amount conversion, and a negative one a Channel with
  // negative funds.
  for (const double scale : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -1.0}) {
    common::Rng rng(3);
    auto g = graph::watts_strogatz(20, 4, 0.15, rng);
    try {
      (void)Network::with_sampled_funds(std::move(g), scale, rng);
      ADD_FAILURE() << "fund_scale " << scale << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("fund_scale"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Network, DirectionFromAndBalanceVectors) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  const Network net(std::move(g), {whole_tokens(4)}, {whole_tokens(6)});
  EXPECT_EQ(net.direction_from(0, 0), Direction::kForward);
  EXPECT_EQ(net.direction_from(0, 1), Direction::kBackward);
  EXPECT_DOUBLE_EQ(net.forward_balances_tokens()[0], 4.0);
  EXPECT_DOUBLE_EQ(net.backward_balances_tokens()[0], 6.0);
}

TEST(Network, ConservationUnderChannelOperations) {
  common::Rng rng(3);
  auto g = graph::watts_strogatz(50, 4, 0.2, rng);
  Network net = Network::with_sampled_funds(std::move(g), 1.0, rng);
  const Amount before = net.total_funds();
  // Random lock/settle/refund storm.
  for (int i = 0; i < 1000; ++i) {
    auto& ch = net.channel(static_cast<ChannelId>(rng.index(net.channel_count())));
    const Direction d = rng.bernoulli(0.5) ? Direction::kForward : Direction::kBackward;
    const Amount v = whole_tokens(1 + static_cast<Amount>(rng.index(5)));
    if (ch.lock(d, v)) {
      if (rng.bernoulli(0.5)) {
        ch.settle(d, v);
      } else {
        ch.refund(d, v);
      }
    }
  }
  EXPECT_EQ(net.total_funds(), before);
}

}  // namespace
}  // namespace splicer::pcn
