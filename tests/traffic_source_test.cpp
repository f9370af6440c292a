#include "pcn/traffic_source.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "graph/generators.h"
#include "pcn/network.h"
#include "routing/engine.h"

namespace splicer::pcn {
namespace {

std::vector<NodeId> make_clients(std::size_t n, NodeId first = 0) {
  std::vector<NodeId> clients(n);
  for (std::size_t i = 0; i < n; ++i) clients[i] = first + static_cast<NodeId>(i);
  return clients;
}

void expect_same_payments(const std::vector<Payment>& a,
                          const std::vector<Payment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "payment " << i;
    EXPECT_EQ(a[i].sender, b[i].sender) << "payment " << i;
    EXPECT_EQ(a[i].receiver, b[i].receiver) << "payment " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "payment " << i;
    EXPECT_DOUBLE_EQ(a[i].arrival_time, b[i].arrival_time) << "payment " << i;
    EXPECT_DOUBLE_EQ(a[i].deadline, b[i].deadline) << "payment " << i;
  }
}

void expect_monotone(const std::vector<Payment>& payments) {
  for (std::size_t i = 1; i < payments.size(); ++i) {
    EXPECT_GE(payments[i].arrival_time, payments[i - 1].arrival_time);
  }
}

/// Writes a temp trace file; removed on destruction.
class TempTrace {
 public:
  explicit TempTrace(const std::string& content) {
    path_ = std::string(::testing::TempDir()) + "trace_" +
            std::to_string(counter_++) + ".csv";
    std::ofstream out(path_);
    out << content;
  }
  ~TempTrace() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

// ---- SyntheticSource ------------------------------------------------------

TEST(SyntheticSource, BitIdenticalToGeneratePayments) {
  WorkloadConfig config;
  config.payment_count = 600;
  const auto clients = make_clients(30);
  common::Rng legacy_rng(42);
  const auto legacy = generate_payments(clients, config, legacy_rng);

  SyntheticSource source(clients, config, common::Rng(42));
  const auto streamed = drain(source);
  expect_same_payments(legacy, streamed);
}

TEST(SyntheticSource, GeneratePaymentsStillAdvancesCallerRng) {
  // Two consecutive batches off one generator must differ (the legacy
  // contract: the caller's RNG stream moves forward).
  WorkloadConfig config;
  config.payment_count = 50;
  common::Rng rng(7);
  const auto a = generate_payments(make_clients(10), config, rng);
  const auto b = generate_payments(make_clients(10), config, rng);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff = any_diff || a[i].value != b[i].value ||
               a[i].arrival_time != b[i].arrival_time;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticSource, EqualSeedsReproduceTheStream) {
  WorkloadConfig config;
  config.payment_count = 300;
  const auto stream = [&](std::uint64_t seed) {
    SyntheticSource source(make_clients(20), config, common::Rng(seed));
    return drain(source);
  };
  const auto a = stream(99);
  const auto b = stream(99);
  expect_same_payments(a, b);
  EXPECT_EQ(a.size(), 300u);
  expect_monotone(a);

  const auto c = stream(100);  // different seed, different stream
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff = any_diff || a[i].value != c[i].value;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticSource, EstimatedCountAndExhaustion) {
  WorkloadConfig config;
  config.payment_count = 25;
  SyntheticSource source(make_clients(5), config, common::Rng(3));
  EXPECT_EQ(source.estimated_count(), 25u);
  const auto all = drain(source);
  EXPECT_EQ(all.size(), 25u);
  EXPECT_FALSE(source.next().has_value());  // stays exhausted
}

// ---- BurstySource ---------------------------------------------------------

TEST(BurstySource, DeterministicMonotoneAndCountMatched) {
  WorkloadConfig config;
  config.kind = WorkloadKind::kBursty;
  config.payment_count = 2000;
  config.horizon_seconds = 20.0;
  config.burst_period_s = 10.0;
  config.burst_amplitude = 0.9;
  BurstySource source(make_clients(25), config, common::Rng(5));
  const auto a = drain(source);
  EXPECT_EQ(a.size(), 2000u);
  expect_monotone(a);
  // A second source from the same seed emits exactly the same stream.
  BurstySource twin(make_clients(25), config, common::Rng(5));
  expect_same_payments(a, drain(twin));
}

TEST(BurstySource, ArrivalsFollowTheSinusoid) {
  WorkloadConfig config;
  config.kind = WorkloadKind::kBursty;
  config.payment_count = 4000;
  config.horizon_seconds = 40.0;
  config.burst_period_s = 10.0;
  config.burst_amplitude = 0.9;
  BurstySource source(make_clients(25), config, common::Rng(11));
  std::size_t peak_half = 0, trough_half = 0;
  for (const auto& p : drain(source)) {
    const double phase = std::fmod(p.arrival_time, config.burst_period_s);
    (phase < config.burst_period_s / 2 ? peak_half : trough_half) += 1;
  }
  // sin >= 0 on the first half-period: the rate there is up to 1.9x base
  // vs down to 0.1x base in the second half.
  EXPECT_GT(peak_half, 2 * trough_half);
}

// ---- HotspotShiftSource ---------------------------------------------------

TEST(HotspotShiftSource, RotatesThePopularityRanks) {
  WorkloadConfig config;
  config.kind = WorkloadKind::kHotspot;
  config.payment_count = 6000;
  config.horizon_seconds = 16.0;
  config.hotspot_shift_interval_s = 8.0;
  config.imbalance = 0.0;  // pure Zipf draws, no sink mass
  HotspotShiftSource source(make_clients(40), config, common::Rng(17));
  std::map<NodeId, std::size_t> first_half, second_half;
  for (const auto& p : drain(source)) {
    (p.arrival_time < 8.0 ? first_half : second_half)[p.sender] += 1;
  }
  const auto top = [](const std::map<NodeId, std::size_t>& counts) {
    NodeId best = 0;
    std::size_t best_count = 0;
    for (const auto& [node, count] : counts) {
      if (count > best_count) {
        best = node;
        best_count = count;
      }
    }
    return best;
  };
  // After the shift the rank order rotated by 10 of 40 positions: the
  // hottest sender moves (deterministic under this seed).
  EXPECT_NE(top(first_half), top(second_half));
}

TEST(HotspotShiftSource, EqualSeedsReproduceTheStream) {
  WorkloadConfig config;
  config.kind = WorkloadKind::kHotspot;
  config.payment_count = 500;
  config.hotspot_shift_interval_s = 3.0;
  HotspotShiftSource source(make_clients(12), config, common::Rng(23));
  HotspotShiftSource twin(make_clients(12), config, common::Rng(23));
  const auto a = drain(source);
  expect_same_payments(a, drain(twin));
  expect_monotone(a);
}

// ---- TraceSource ----------------------------------------------------------

TEST(TraceSource, ReplaysRowsWithRemappingAndRescaling) {
  TempTrace trace(
      "time,sender,receiver,amount\n"
      "# comment line\n"
      "100.0,alice,bob,10.0\n"
      "100.5,bob,carol,2.5\n"
      "101.0,alice,carol,0.0004\n");
  WorkloadConfig config;
  config.kind = WorkloadKind::kTrace;
  config.trace_file = trace.path();
  config.value_scale = 2.0;
  config.timeout_seconds = 3.0;
  TraceSource source(trace.path(), make_clients(5, 10), config);
  EXPECT_EQ(source.estimated_count(), 3u);
  const auto payments = drain(source);
  ASSERT_EQ(payments.size(), 3u);
  // Times are shifted so the first row arrives at 0.
  EXPECT_DOUBLE_EQ(payments[0].arrival_time, 0.0);
  EXPECT_DOUBLE_EQ(payments[1].arrival_time, 0.5);
  EXPECT_DOUBLE_EQ(payments[0].deadline, 3.0);
  // First-seen remap: alice->10, bob->11, carol->12.
  EXPECT_EQ(payments[0].sender, 10u);
  EXPECT_EQ(payments[0].receiver, 11u);
  EXPECT_EQ(payments[1].sender, 11u);
  EXPECT_EQ(payments[1].receiver, 12u);
  // 10 tokens * value_scale 2.
  EXPECT_EQ(payments[0].value, common::whole_tokens(20));
  // Tiny amounts floor at one token.
  EXPECT_EQ(payments[2].value, common::whole_tokens(1));
  EXPECT_DOUBLE_EQ(source.horizon_hint(), 1.0 + 3.0);
}

TEST(TraceSource, MoreEndpointsThanClientsFoldAndSelfPaysBump) {
  TempTrace trace(
      "0.0,n0,n2,5\n"
      "1.0,n0,n1,5\n");  // n1 folds onto n0's client: self-pay, bumped
  WorkloadConfig config;
  config.kind = WorkloadKind::kTrace;
  config.trace_file = trace.path();
  // Two clients: n0->20, n2->21, then n1->20 again (round-robin reuse).
  TraceSource source(trace.path(), make_clients(2, 20), config);
  const auto payments = drain(source);
  ASSERT_EQ(payments.size(), 2u);
  for (const auto& p : payments) {
    EXPECT_NE(p.sender, p.receiver);
    EXPECT_GE(p.sender, 20u);
    EXPECT_LE(p.receiver, 21u);
  }
}

TEST(TraceSource, NumericModeSkipsUnknownEndpoints) {
  TempTrace trace(
      "0.0,0,1,5\n"
      "1.0,7,1,5\n"     // sender out of range
      "2.0,0,xyz,5\n"   // non-numeric receiver
      "3.0,1,0,5\n");
  WorkloadConfig config;
  config.kind = WorkloadKind::kTrace;
  config.trace_file = trace.path();
  config.trace_remap = false;
  TraceSource source(trace.path(), make_clients(3, 30), config);
  EXPECT_EQ(source.estimated_count(), 2u);
  const auto payments = drain(source);
  ASSERT_EQ(payments.size(), 2u);
  EXPECT_EQ(payments[0].sender, 30u);
  EXPECT_EQ(payments[0].receiver, 31u);
  EXPECT_EQ(payments[1].sender, 31u);
  EXPECT_EQ(payments[1].receiver, 30u);
  EXPECT_EQ(source.rows_skipped(), 2u);
}

TEST(TraceSource, ClipsRowsPastTheHorizon) {
  TempTrace trace(
      "0.0,a,b,5\n"
      "4.0,b,a,5\n"
      "10.0,a,b,5\n"
      "11.0,b,a,5\n");
  WorkloadConfig config;
  config.kind = WorkloadKind::kTrace;
  config.trace_file = trace.path();
  config.horizon_seconds = 5.0;
  TraceSource source(trace.path(), make_clients(4), config);
  EXPECT_EQ(source.estimated_count(), 2u);
  const auto payments = drain(source);
  ASSERT_EQ(payments.size(), 2u);
  EXPECT_DOUBLE_EQ(payments.back().arrival_time, 4.0);
  EXPECT_EQ(source.rows_skipped(), 2u);
}

TEST(TraceSource, ThrowsOnUnsortedRows) {
  TempTrace trace(
      "5.0,a,b,5\n"
      "1.0,b,a,5\n");
  WorkloadConfig config;
  config.kind = WorkloadKind::kTrace;
  config.trace_file = trace.path();
  EXPECT_THROW(TraceSource(trace.path(), make_clients(4), config),
               std::invalid_argument);
}

TEST(TraceSource, ThrowsOnMissingFile) {
  WorkloadConfig config;
  config.kind = WorkloadKind::kTrace;
  config.trace_file = "/nonexistent/trace.csv";
  EXPECT_THROW(TraceSource("/nonexistent/trace.csv", make_clients(4), config),
               std::invalid_argument);
}

TEST(TraceSource, ReplaysIdentically) {
  TempTrace trace(
      "0.0,a,b,5\n"
      "0.5,b,c,7\n"
      "1.5,c,a,2\n");
  WorkloadConfig config;
  config.kind = WorkloadKind::kTrace;
  config.trace_file = trace.path();
  TraceSource source(trace.path(), make_clients(3), config);
  TraceSource twin(trace.path(), make_clients(3), config);
  const auto a = drain(source);
  EXPECT_EQ(a.size(), 3u);
  expect_same_payments(a, drain(twin));
}

TEST(TraceSource, MalformedRowsAreSkippedNotFatal) {
  TempTrace trace(
      "0.0,a,b,5\n"
      "not,a,row\n"
      "1.0,a,b\n"
      "2.0,a,b,-4\n"
      "3.0,a,b,5,extra\n"
      "4.0,b,a,5\n");
  WorkloadConfig config;
  config.kind = WorkloadKind::kTrace;
  config.trace_file = trace.path();
  TraceSource source(trace.path(), make_clients(4), config);
  EXPECT_EQ(source.estimated_count(), 2u);
  EXPECT_EQ(drain(source).size(), 2u);
  EXPECT_EQ(source.rows_skipped(), 4u);
}

// ---- Factory / VectorSource ----------------------------------------------

TEST(MakeTrafficSource, BuildsEveryKindAndValidates) {
  const auto clients = make_clients(10);
  for (const auto kind : {WorkloadKind::kSynthetic, WorkloadKind::kBursty,
                          WorkloadKind::kHotspot}) {
    WorkloadConfig config;
    config.kind = kind;
    config.payment_count = 40;
    const auto source = make_traffic_source(clients, config, common::Rng(2));
    EXPECT_EQ(drain(*source).size(), 40u) << to_string(kind);
  }
  WorkloadConfig bad;
  bad.payment_count = 0;
  EXPECT_THROW((void)make_traffic_source(clients, bad, common::Rng(2)),
               std::invalid_argument);
}

TEST(VectorSource, OwningCtorSortsByArrival) {
  std::vector<Payment> payments(3);
  payments[0].id = 1;
  payments[0].arrival_time = 5.0;
  payments[0].deadline = 8.0;
  payments[1].id = 2;
  payments[1].arrival_time = 1.0;
  payments[1].deadline = 4.0;
  payments[2].id = 3;
  payments[2].arrival_time = 3.0;
  payments[2].deadline = 6.0;
  VectorSource source(payments);
  EXPECT_DOUBLE_EQ(source.horizon_hint(), 8.0);
  const auto sorted = drain(source);
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 2u);
  EXPECT_EQ(sorted[1].id, 3u);
  EXPECT_EQ(sorted[2].id, 1u);
  EXPECT_FALSE(source.next().has_value());  // stays exhausted
}

TEST(VectorSource, ViewCtorRejectsUnsorted) {
  std::vector<Payment> payments(2);
  payments[0].arrival_time = 5.0;
  payments[1].arrival_time = 1.0;
  EXPECT_THROW(VectorSource{&payments}, std::invalid_argument);
}

// ---- Engine streaming -----------------------------------------------------

/// Sends every payment as one TU along the only path 0 -> 1.
class DirectRouter : public routing::Router {
 public:
  [[nodiscard]] std::string name() const override { return "direct"; }
  void on_payment(routing::Engine& engine,
                  const pcn::Payment& payment) override {
    routing::TransactionUnit tu;
    tu.payment = payment.id;
    tu.value = payment.value;
    tu.deadline = payment.deadline;
    tu.path.nodes = {payment.sender, payment.receiver};
    tu.path.edges = {0};
    tu.hop_amounts = {payment.value};
    engine.send_tu(std::move(tu));
  }
};

TEST(EngineStreaming, SourceRunMatchesVectorRunExactly) {
  WorkloadConfig config;
  config.payment_count = 400;
  config.horizon_seconds = 8.0;
  const std::vector<NodeId> clients{0, 1};

  graph::Graph g(2);
  g.add_edge(0, 1);
  const auto network =
      pcn::Network::with_uniform_funds(std::move(g), common::whole_tokens(4000));

  routing::EngineConfig engine_config;
  const auto run_with = [&](std::unique_ptr<TrafficSource> source) {
    DirectRouter router;
    routing::Engine engine(network, std::move(source), router, engine_config);
    return engine.run();
  };

  common::Rng rng(77);
  auto vector_run = run_with(std::make_unique<VectorSource>(
      generate_payments(clients, config, rng)));
  auto streamed_run = run_with(
      std::make_unique<SyntheticSource>(clients, config, common::Rng(77)));

  EXPECT_EQ(vector_run.payments_generated, streamed_run.payments_generated);
  EXPECT_EQ(vector_run.payments_completed, streamed_run.payments_completed);
  EXPECT_EQ(vector_run.payments_failed, streamed_run.payments_failed);
  EXPECT_EQ(vector_run.value_completed, streamed_run.value_completed);
  EXPECT_DOUBLE_EQ(vector_run.completion_delay_stats.sum(),
                   streamed_run.completion_delay_stats.sum());
  // Lazy pulls keep the arrival pipeline tiny either way.
  EXPECT_LT(streamed_run.peak_payment_buffer, 400u);
  EXPECT_GT(streamed_run.peak_payment_buffer, 0u);
  EXPECT_EQ(vector_run.peak_payment_buffer, streamed_run.peak_payment_buffer);
}

}  // namespace
}  // namespace splicer::pcn
