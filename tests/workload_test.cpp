#include "pcn/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/stats.h"

namespace splicer::pcn {
namespace {

std::vector<NodeId> make_clients(std::size_t n) {
  std::vector<NodeId> clients(n);
  for (std::size_t i = 0; i < n; ++i) clients[i] = static_cast<NodeId>(i);
  return clients;
}

TEST(Workload, GeneratesRequestedCount) {
  common::Rng rng(1);
  WorkloadConfig config;
  config.payment_count = 500;
  const auto payments = generate_payments(make_clients(50), config, rng);
  EXPECT_EQ(payments.size(), 500u);
}

TEST(Workload, SenderNeverEqualsReceiver) {
  common::Rng rng(2);
  WorkloadConfig config;
  config.payment_count = 2000;
  for (const auto& p : generate_payments(make_clients(20), config, rng)) {
    EXPECT_NE(p.sender, p.receiver);
  }
}

TEST(Workload, ArrivalsMonotoneWithinHorizonOrder) {
  common::Rng rng(3);
  WorkloadConfig config;
  config.payment_count = 1000;
  config.horizon_seconds = 10.0;
  const auto payments = generate_payments(make_clients(30), config, rng);
  for (std::size_t i = 1; i < payments.size(); ++i) {
    EXPECT_GE(payments[i].arrival_time, payments[i - 1].arrival_time);
  }
}

TEST(Workload, DeadlineIsArrivalPlusTimeout) {
  common::Rng rng(4);
  WorkloadConfig config;
  config.payment_count = 100;
  config.timeout_seconds = 3.0;  // paper value
  for (const auto& p : generate_payments(make_clients(10), config, rng)) {
    EXPECT_DOUBLE_EQ(p.deadline, p.arrival_time + 3.0);
  }
}

TEST(Workload, ValuesMatchCreditCardCalibration) {
  common::Rng rng(5);
  WorkloadConfig config;
  config.payment_count = 50000;
  const auto payments = generate_payments(make_clients(100), config, rng);
  std::vector<double> tokens;
  for (const auto& p : payments) tokens.push_back(common::to_tokens(p.value));
  EXPECT_NEAR(common::median(tokens), 22.0, 3.0);
  EXPECT_NEAR(common::mean_of(tokens), 88.35, 10.0);
}

TEST(Workload, ValueScaleApplies) {
  common::Rng rng1(6), rng2(6);
  WorkloadConfig base;
  base.payment_count = 5000;
  WorkloadConfig scaled = base;
  scaled.value_scale = 4.0;
  const auto a = generate_payments(make_clients(40), base, rng1);
  const auto b = generate_payments(make_clients(40), scaled, rng2);
  double sum_a = 0, sum_b = 0;
  for (const auto& p : a) sum_a += static_cast<double>(p.value);
  for (const auto& p : b) sum_b += static_cast<double>(p.value);
  EXPECT_NEAR(sum_b / sum_a, 4.0, 0.1);
}

TEST(Workload, MinimumValueOneToken) {
  common::Rng rng(7);
  WorkloadConfig config;
  config.payment_count = 3000;
  config.value_scale = 0.001;  // push everything below a token
  for (const auto& p : generate_payments(make_clients(10), config, rng)) {
    EXPECT_GE(p.value, common::whole_tokens(1));
  }
}

TEST(Workload, ImbalanceCreatesNetSinks) {
  // The paper's workload "is guaranteed to cause some local deadlocks":
  // net flows must be meaningfully unbalanced.
  common::Rng rng(8);
  WorkloadConfig config;
  config.payment_count = 20000;
  config.imbalance = 0.3;
  const auto clients = make_clients(50);
  const auto payments = generate_payments(clients, config, rng);
  const auto net = net_flow_by_node(50, payments);
  const Amount max_sink = *std::max_element(net.begin(), net.end());
  Amount total_value = 0;
  for (const auto& p : payments) total_value += p.value;
  // The biggest sink absorbs a sizeable share of total traffic.
  EXPECT_GT(max_sink, total_value / 50);
}

TEST(Workload, NetFlowSumsToZero) {
  common::Rng rng(9);
  WorkloadConfig config;
  config.payment_count = 1000;
  const auto payments = generate_payments(make_clients(25), config, rng);
  const auto net = net_flow_by_node(25, payments);
  Amount sum = 0;
  for (const Amount v : net) sum += v;
  EXPECT_EQ(sum, 0);
}

TEST(Workload, DeterministicGivenSeed) {
  common::Rng a(10), b(10);
  WorkloadConfig config;
  config.payment_count = 200;
  const auto pa = generate_payments(make_clients(20), config, a);
  const auto pb = generate_payments(make_clients(20), config, b);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].sender, pb[i].sender);
    EXPECT_EQ(pa[i].receiver, pb[i].receiver);
    EXPECT_EQ(pa[i].value, pb[i].value);
    EXPECT_DOUBLE_EQ(pa[i].arrival_time, pb[i].arrival_time);
  }
}

TEST(Workload, RequiresTwoClients) {
  common::Rng rng(11);
  WorkloadConfig config;
  EXPECT_THROW((void)generate_payments({1}, config, rng), std::invalid_argument);
}

TEST(WorkloadConfig, ValidateRejectsBadKnobs) {
  const auto expect_invalid = [](WorkloadConfig config) {
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  WorkloadConfig ok;
  EXPECT_NO_THROW(ok.validate());

  WorkloadConfig config;
  config.payment_count = 0;
  expect_invalid(config);

  config = WorkloadConfig{};
  config.horizon_seconds = 0.0;
  expect_invalid(config);
  config.horizon_seconds = -2.0;
  expect_invalid(config);

  config = WorkloadConfig{};
  config.timeout_seconds = 0.0;
  expect_invalid(config);

  config = WorkloadConfig{};
  config.sink_fraction = -0.1;
  expect_invalid(config);
  config.sink_fraction = 1.1;
  expect_invalid(config);

  config = WorkloadConfig{};
  config.value_scale = 0.0;
  expect_invalid(config);
  // Infinite token values have no Amount.
  config.value_scale = std::numeric_limits<double>::infinity();
  expect_invalid(config);
  config.value_scale = std::numeric_limits<double>::quiet_NaN();
  expect_invalid(config);

  config = WorkloadConfig{};
  config.kind = WorkloadKind::kTrace;  // no trace_file
  expect_invalid(config);

  config = WorkloadConfig{};
  config.kind = WorkloadKind::kBursty;
  config.burst_amplitude = 1.5;
  expect_invalid(config);

  config = WorkloadConfig{};
  config.kind = WorkloadKind::kHotspot;
  config.hotspot_shift_interval_s = 0.0;
  expect_invalid(config);
}

TEST(WorkloadConfig, GenerationPathsRejectInvalidConfigs) {
  common::Rng rng(12);
  WorkloadConfig config;
  config.payment_count = 0;
  std::vector<NodeId> clients{0, 1, 2};
  EXPECT_THROW((void)generate_payments(clients, config, rng),
               std::invalid_argument);
}

TEST(WorkloadKindNames, RoundTrip) {
  for (const auto kind : {WorkloadKind::kSynthetic, WorkloadKind::kTrace,
                          WorkloadKind::kBursty, WorkloadKind::kHotspot}) {
    EXPECT_EQ(workload_kind_from(to_string(kind)), kind);
  }
  EXPECT_THROW((void)workload_kind_from("poisson"), std::invalid_argument);
}

TEST(NetFlow, EmptyPaymentsGiveZeroFlows) {
  const auto net = net_flow_by_node(4, {});
  ASSERT_EQ(net.size(), 4u);
  for (const Amount v : net) EXPECT_EQ(v, 0);
}

TEST(NetFlow, KnownPaymentsGiveExactPerNodeFlows) {
  std::vector<Payment> payments(3);
  payments[0].sender = 0;
  payments[0].receiver = 1;
  payments[0].value = common::whole_tokens(5);
  payments[1].sender = 1;
  payments[1].receiver = 2;
  payments[1].value = common::whole_tokens(2);
  payments[2].sender = 0;
  payments[2].receiver = 2;
  payments[2].value = common::whole_tokens(1);
  const auto net = net_flow_by_node(3, payments);
  EXPECT_EQ(net[0], common::whole_tokens(-6));
  EXPECT_EQ(net[1], common::whole_tokens(3));
  EXPECT_EQ(net[2], common::whole_tokens(3));
}

TEST(NetFlow, OutOfRangeNodeThrows) {
  std::vector<Payment> payments(1);
  payments[0].sender = 0;
  payments[0].receiver = 9;
  payments[0].value = common::whole_tokens(1);
  EXPECT_THROW((void)net_flow_by_node(3, payments), std::out_of_range);
}

}  // namespace
}  // namespace splicer::pcn
