// The streaming-scale contract: a 10^6-payment run completes without ever
// materialising the workload — the engine pulls one payment at a time, and
// EngineMetrics::peak_payment_buffer proves the arrival pipeline stayed at
// the concurrency level, not the total size. Eviction extends this to the
// resolved side: resolved PaymentStates are evicted once unreferenced, so
// peak_resident_states also stays at the concurrency level while
// states_evicted counts every payment — and every reported metric equals
// the frozen reference of a run that retained every state.

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "pcn/network.h"
#include "pcn/traffic_source.h"
#include "routing/engine.h"

namespace splicer::routing {
namespace {

/// Cheapest possible policy: reject every payment on arrival. The engine
/// still runs the full arrival + deadline event machinery per payment.
class RejectingRouter : public Router {
 public:
  [[nodiscard]] std::string name() const override { return "rejecting"; }
  void on_payment(Engine& engine, const pcn::Payment& payment) override {
    engine.fail_payment(payment.id, FailReason::kNoPath);
  }
};

/// Forwards every payment over the single channel 0 -> 1.
class ForwardingRouter : public Router {
 public:
  [[nodiscard]] std::string name() const override { return "forwarding"; }
  void on_payment(Engine& engine, const pcn::Payment& payment) override {
    TransactionUnit tu;
    tu.payment = payment.id;
    tu.value = payment.value;
    tu.deadline = payment.deadline;
    tu.path.nodes = {payment.sender, payment.receiver};
    tu.path.edges = {0};
    tu.hop_amounts = {payment.value};
    engine.send_tu(std::move(tu));
  }
};

pcn::Network pair_network(common::Amount per_side) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  return pcn::Network::with_uniform_funds(std::move(g), per_side);
}

TEST(StreamingScale, MillionPaymentRunNeverMaterialisesTheWorkload) {
  pcn::WorkloadConfig config;
  config.payment_count = 1'000'000;
  config.horizon_seconds = 10'000.0;
  config.streaming = true;

  auto source = std::make_unique<pcn::SyntheticSource>(
      std::vector<pcn::NodeId>{0, 1}, config, common::Rng(123));

  RejectingRouter router;
  Engine engine(pair_network(common::whole_tokens(100)), std::move(source),
                router, {});
  const auto metrics = engine.run();

  EXPECT_EQ(metrics.payments_generated, 1'000'000u);
  EXPECT_EQ(metrics.payments_failed, 1'000'000u);
  // Every payment resolves inside its own arrival event, so the pipeline
  // never holds more than the one look-ahead pull plus the arriving
  // payment.
  EXPECT_LE(metrics.peak_payment_buffer, 2u);
  // Every state is evicted once its (no-op) deadline event fires, so the
  // resident set is bounded by the ~100/s arrival rate times the 3 s
  // payment timeout — the concurrency level, never the 10^6 total.
  EXPECT_EQ(metrics.states_evicted, 1'000'000u);
  EXPECT_LT(metrics.peak_resident_states, 2'000u);
  EXPECT_GT(metrics.peak_resident_states, 0u);
  // The streamed accumulators carry the resolved outcomes.
  EXPECT_EQ(metrics.tus_per_payment_stats.count(), 1'000'000u);
}

TEST(StreamingScale, BusyStreamingRunKeepsTheBufferAtConcurrencyLevel) {
  pcn::WorkloadConfig config;
  config.payment_count = 50'000;
  config.horizon_seconds = 500.0;
  config.streaming = true;

  auto source = std::make_unique<pcn::SyntheticSource>(
      std::vector<pcn::NodeId>{0, 1}, config, common::Rng(9));

  ForwardingRouter router;
  Engine engine(pair_network(common::whole_tokens(500'000)),
                std::move(source), router, {});
  const auto metrics = engine.run();

  EXPECT_EQ(metrics.payments_generated, 50'000u);
  EXPECT_GT(metrics.payments_completed, 0u);
  // ~100 arrivals/s against a ~3.5 s payment lifetime: the resident window
  // is a few hundred payments, never the 50k workload.
  EXPECT_GT(metrics.peak_payment_buffer, 1u);
  EXPECT_LT(metrics.peak_payment_buffer, 5'000u);
}

/// Metrics of the 20k-payment forwarding run recorded when the engine
/// could still retain every resolved PaymentState.
struct RetainedReference {
  double epoch_s;
  std::size_t completed;
  std::size_t failed;
  common::Amount value_completed;
  double tsr;
  double average_delay_s;
  double delay_sum;
  std::uint64_t messages;
  std::uint64_t scheduler_events;
};

TEST(StreamingScale, EvictionAndRetentionReportIdenticalMetrics) {
  pcn::WorkloadConfig config;
  config.payment_count = 20'000;
  config.horizon_seconds = 200.0;
  config.streaming = true;

  // Both engine modes: exact per-hop settlement and the batched epoch path
  // (deferred eviction through cancelled deadline events + epoch buffers).
  // Every payment is one single-hop TU, so TUs track payments one to one
  // and every failure is a timeout.
  constexpr RetainedReference kReference[] = {
      {0.0, 15331, 4669, 1296039325, 0.76654999999999995,
       0.054239741943200748, 831.54948373121067, 90662, 107195},
      {0.01, 13822, 6178, 1176338463, 0.69110000000000005,
       0.048513026307245327, 670.54704961874495, 87644, 65864},
  };
  for (const auto& ref : kReference) {
    auto source = std::make_unique<pcn::SyntheticSource>(
        std::vector<pcn::NodeId>{0, 1}, config, common::Rng(9));
    ForwardingRouter router;
    EngineConfig engine_config;
    engine_config.settlement_epoch_s = ref.epoch_s;
    Engine engine(pair_network(common::whole_tokens(500'000)),
                  std::move(source), router, engine_config);
    const auto evicted = engine.run();

    // Identical event streams: every reported metric matches bit for bit.
    EXPECT_EQ(evicted.payments_generated, 20'000u);
    EXPECT_EQ(evicted.payments_completed, ref.completed);
    EXPECT_EQ(evicted.payments_failed, ref.failed);
    EXPECT_EQ(evicted.value_completed, ref.value_completed);
    EXPECT_DOUBLE_EQ(evicted.tsr(), ref.tsr);
    EXPECT_DOUBLE_EQ(evicted.average_delay_s(), ref.average_delay_s);
    EXPECT_DOUBLE_EQ(evicted.completion_delay_stats.sum(), ref.delay_sum);
    EXPECT_DOUBLE_EQ(evicted.tus_per_payment_stats.mean(), 1.0);
    EXPECT_EQ(evicted.failed_delivered_value, 0);
    EXPECT_EQ(evicted.tus_sent, 20'000u);
    EXPECT_EQ(evicted.tus_delivered, ref.completed);
    EXPECT_EQ(evicted.tus_failed, ref.failed);
    EXPECT_EQ(evicted.messages.total(), ref.messages);
    EXPECT_EQ(evicted.scheduler_events, ref.scheduler_events);
    std::array<std::uint64_t, kFailReasonCount> reasons{};
    reasons[static_cast<std::size_t>(FailReason::kTimeout)] = ref.failed;
    EXPECT_EQ(evicted.payment_fail_reasons, reasons);

    // Only the memory profile differs: the retained run held all 20k.
    EXPECT_EQ(evicted.states_evicted, evicted.payments_generated);
    EXPECT_LT(evicted.peak_resident_states, 5'000u);
  }
}

}  // namespace
}  // namespace splicer::routing
