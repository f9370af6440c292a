// Parity gate for the incremental rate-control tick: the default mode
// (dirty-channel price updates, memoized probe sums, sleeping pairs) must
// be bit-identical to the forced legacy full sweep
// (EngineConfig::full_recompute_ticks) in everything observable — channel
// prices, pair diagnostics, channel generations, metrics — with the sole
// exception of the three tick-work counters that exist to measure the
// difference.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "routing/engine.h"
#include "routing/experiment.h"
#include "routing/spider_router.h"
#include "routing/splicer_router.h"

namespace splicer::routing {
namespace {

using common::whole_tokens;

// ---- direct engine-level parity (router state inspected) -------------------

pcn::Network hub_pair_network() {
  // Clients 0, 3 on hubs 1, 2; trunk 1-2. Clients 4, 5 never transact:
  // their spokes are the never-touched channels the incremental tick must
  // skip from the first tick on.
  graph::Graph g(6);
  g.add_edge(0, 1);  // spoke
  g.add_edge(1, 2);  // trunk
  g.add_edge(2, 3);  // spoke
  g.add_edge(1, 4);  // idle spoke
  g.add_edge(2, 5);  // idle spoke
  return pcn::Network::with_uniform_funds(std::move(g), whole_tokens(1000));
}

/// Two traffic bursts separated by a quiet gap: the gap retires channels
/// (prices decay to exact zero) and puts pairs to sleep; the second burst
/// exercises wake-on-demand, so both the skip and the re-activation paths
/// run before the comparison.
std::vector<pcn::Payment> bursty_stream(NodeId s, NodeId r, Amount v,
                                        PaymentId first_id) {
  std::vector<pcn::Payment> payments;
  PaymentId id = first_id;
  const auto burst = [&](double start, double seconds, double rate) {
    for (double t = start; t < start + seconds; t += 1.0 / rate) {
      pcn::Payment p;
      p.id = id++;
      p.sender = s;
      p.receiver = r;
      p.value = v;
      p.arrival_time = t;
      p.deadline = t + 3.0;
      payments.push_back(p);
    }
  };
  burst(0.05, 3.0, 4.0);
  burst(9.0, 2.0, 4.0);
  return payments;
}

std::vector<pcn::Payment> two_way_bursts() {
  auto payments = bursty_stream(0, 3, whole_tokens(12), 1);
  const auto reverse = bursty_stream(3, 0, whole_tokens(6), 1000);
  payments.insert(payments.end(), reverse.begin(), reverse.end());
  std::sort(payments.begin(), payments.end(), [](const auto& a, const auto& b) {
    return a.arrival_time < b.arrival_time;
  });
  for (std::size_t i = 0; i < payments.size(); ++i) payments[i].id = i + 1;
  return payments;
}

struct DirectRun {
  std::vector<double> prices;           // channel_price, every (channel, dir)
  std::vector<RateRouterBase::PathDiagnostics> diagnostics;
  std::vector<std::uint64_t> generations;  // per-channel mutation stamps
  EngineMetrics metrics;
};

template <typename RouterT>
DirectRun run_direct(RouterT& router, bool full_recompute,
                     double settlement_epoch_s) {
  EngineConfig config;
  config.queues_enabled = true;
  config.settlement_epoch_s = settlement_epoch_s;
  config.full_recompute_ticks = full_recompute;
  Engine engine(hub_pair_network(), two_way_bursts(), router, config);
  DirectRun run;
  run.metrics = engine.run();
  for (ChannelId c = 0; c < engine.network().channel_count(); ++c) {
    run.prices.push_back(router.channel_price(c, pcn::Direction::kForward));
    run.prices.push_back(router.channel_price(c, pcn::Direction::kBackward));
    run.generations.push_back(engine.network().channel(c).generation());
  }
  run.diagnostics = router.pair_diagnostics(0, 3);
  return run;
}

/// Everything of EngineMetrics that both tick modes must agree on, as a
/// flat double vector (exact for the integer fields in range). The three
/// tick-work counters are excluded — they are the one allowed difference.
std::vector<double> metric_signature(const EngineMetrics& m) {
  std::vector<double> sig{
      static_cast<double>(m.payments_generated),
      static_cast<double>(m.payments_completed),
      static_cast<double>(m.payments_failed),
      static_cast<double>(m.value_generated),
      static_cast<double>(m.value_completed),
      static_cast<double>(m.tus_sent),
      static_cast<double>(m.tus_delivered),
      static_cast<double>(m.tus_failed),
      static_cast<double>(m.tus_marked),
      static_cast<double>(m.messages.data_hops),
      static_cast<double>(m.messages.ack_messages),
      static_cast<double>(m.messages.probe_messages),
      static_cast<double>(m.messages.sync_messages),
      static_cast<double>(m.messages.control_messages),
      m.simulated_seconds,
      static_cast<double>(m.scheduler_events),
      static_cast<double>(m.settlement_flushes),
      static_cast<double>(m.settlements_batched),
      static_cast<double>(m.peak_payment_buffer),
      static_cast<double>(m.peak_resident_states),
      static_cast<double>(m.states_evicted),
      static_cast<double>(m.completion_delay_stats.count()),
      m.completion_delay_stats.sum(),
      m.completion_delay_stats.min(),
      m.completion_delay_stats.max(),
      static_cast<double>(m.tus_per_payment_stats.count()),
      m.tus_per_payment_stats.sum(),
      static_cast<double>(m.failed_delivered_value),
  };
  for (const auto v : m.tu_fail_reasons) sig.push_back(static_cast<double>(v));
  for (const auto v : m.payment_fail_reasons) {
    sig.push_back(static_cast<double>(v));
  }
  return sig;
}

void expect_runs_identical(const DirectRun& incremental,
                           const DirectRun& full) {
  ASSERT_EQ(incremental.prices.size(), full.prices.size());
  for (std::size_t i = 0; i < full.prices.size(); ++i) {
    EXPECT_EQ(incremental.prices[i], full.prices[i]) << "price slot " << i;
  }
  EXPECT_EQ(incremental.generations, full.generations);
  ASSERT_EQ(incremental.diagnostics.size(), full.diagnostics.size());
  for (std::size_t i = 0; i < full.diagnostics.size(); ++i) {
    EXPECT_EQ(incremental.diagnostics[i].rate_tps, full.diagnostics[i].rate_tps);
    EXPECT_EQ(incremental.diagnostics[i].window, full.diagnostics[i].window);
    EXPECT_EQ(incremental.diagnostics[i].price, full.diagnostics[i].price);
    EXPECT_EQ(incremental.diagnostics[i].outstanding,
              full.diagnostics[i].outstanding);
  }
  EXPECT_EQ(metric_signature(incremental.metrics),
            metric_signature(full.metrics));
  // The full sweep must report no skipped work; the incremental run must
  // report some (otherwise the fast path silently degraded to the sweep).
  EXPECT_EQ(full.metrics.price_updates_skipped, 0u);
  EXPECT_EQ(full.metrics.probe_sums_reused, 0u);
  EXPECT_GT(incremental.metrics.price_updates_skipped, 0u);
}

TEST(RateIncrementalTick, SplicerDirectParityPerHopSettlement) {
  SplicerRouter::Config config;
  config.protocol.k_paths = 1;
  SplicerRouter inc_router({1, 1, 2, 2, 1, 2}, {1, 2}, config);
  SplicerRouter full_router({1, 1, 2, 2, 1, 2}, {1, 2}, config);
  const auto incremental = run_direct(inc_router, false, 0.0);
  const auto full = run_direct(full_router, true, 0.0);
  expect_runs_identical(incremental, full);
  EXPECT_GT(incremental.metrics.payments_completed, 0u);
}

TEST(RateIncrementalTick, SplicerDirectParityBatchedSettlement) {
  SplicerRouter::Config config;
  config.protocol.k_paths = 1;
  SplicerRouter inc_router({1, 1, 2, 2, 1, 2}, {1, 2}, config);
  SplicerRouter full_router({1, 1, 2, 2, 1, 2}, {1, 2}, config);
  const auto incremental = run_direct(inc_router, false, 0.01);
  const auto full = run_direct(full_router, true, 0.01);
  expect_runs_identical(incremental, full);
}

TEST(RateIncrementalTick, SpiderDirectParity) {
  SpiderRouter inc_router;
  SpiderRouter full_router;
  const auto incremental = run_direct(inc_router, false, 0.0);
  const auto full = run_direct(full_router, true, 0.0);
  expect_runs_identical(incremental, full);
}

// ---- scenario-level parity (full pipeline, three schemes) ------------------

Scenario small_scenario() {
  ScenarioConfig config;
  config.seed = 7;
  config.topology.nodes = 60;
  config.placement.candidate_count = 6;
  config.workload.payment_count = 250;
  config.workload.horizon_seconds = 12.0;
  return prepare_scenario(config);
}

EngineMetrics run_mode(const Scenario& scenario, Scheme scheme, bool full,
                       double settlement_epoch_s) {
  SchemeConfig config;
  config.engine.settlement_epoch_s = settlement_epoch_s;
  config.engine.full_recompute_ticks = full;
  return run_scheme(scenario, scheme, config);
}

TEST(RateIncrementalTick, SchemeParityAcrossSettlementModes) {
  const auto scenario = small_scenario();
  for (const auto scheme : {Scheme::kSplicer, Scheme::kSpider, Scheme::kA2l}) {
    for (const double epoch_s : {0.0, 0.01}) {
      const auto incremental = run_mode(scenario, scheme, false, epoch_s);
      const auto full = run_mode(scenario, scheme, true, epoch_s);
      EXPECT_EQ(metric_signature(incremental), metric_signature(full))
          << to_string(scheme) << " epoch=" << epoch_s;
      EXPECT_EQ(full.price_updates_skipped, 0u);
      EXPECT_EQ(full.probe_sums_reused, 0u);
      if (scheme != Scheme::kA2l) {
        // A2L is not a rate router; its counters stay zero in both modes.
        EXPECT_GT(incremental.price_updates_skipped, 0u) << to_string(scheme);
        EXPECT_GT(incremental.probe_sums_reused, 0u) << to_string(scheme);
        EXPECT_GT(incremental.active_pairs_peak, 0u) << to_string(scheme);
      }
    }
  }
}

}  // namespace
}  // namespace splicer::routing
