// Scenario preparation + cross-scheme integration checks (the machinery
// behind the Fig. 7/8 benches).

#include "routing/experiment.h"

#include <gtest/gtest.h>

#include "graph/metrics.h"

namespace splicer::routing {
namespace {

ScenarioConfig small_config(std::uint64_t seed = 7) {
  ScenarioConfig config;
  config.seed = seed;
  config.topology.nodes = 80;
  config.placement.candidate_count = 8;
  config.workload.payment_count = 400;
  config.workload.horizon_seconds = 8.0;
  return config;
}

TEST(Scenario, PreparationIsConsistent) {
  const auto scenario = prepare_scenario(small_config());
  EXPECT_EQ(scenario.raw.node_count(), 80u);
  EXPECT_GE(scenario.multi_star.hubs.size(), 1u);
  EXPECT_EQ(scenario.payments.size(), 400u);
  // Clients exclude all hubs.
  for (const auto client : scenario.clients) {
    EXPECT_FALSE(scenario.multi_star.is_hub[client]);
    EXPECT_NE(client, scenario.single_star.hubs.front());
  }
  // Payment endpoints are clients.
  for (const auto& p : scenario.payments) {
    EXPECT_FALSE(scenario.multi_star.is_hub[p.sender]);
    EXPECT_FALSE(scenario.multi_star.is_hub[p.receiver]);
  }
}

TEST(Scenario, DeterministicAcrossCalls) {
  const auto a = prepare_scenario(small_config(11));
  const auto b = prepare_scenario(small_config(11));
  ASSERT_EQ(a.payments.size(), b.payments.size());
  for (std::size_t i = 0; i < a.payments.size(); ++i) {
    EXPECT_EQ(a.payments[i].sender, b.payments[i].sender);
    EXPECT_EQ(a.payments[i].value, b.payments[i].value);
  }
  EXPECT_EQ(a.multi_star.hubs, b.multi_star.hubs);
}

TEST(Scenario, ScaleFreeVariant) {
  auto config = small_config();
  config.topology.scale_free = true;
  const auto scenario = prepare_scenario(config);
  EXPECT_TRUE(graph::is_connected(scenario.raw.topology()));
}

TEST(RunScheme, AllSchemesProduceSaneMetrics) {
  const auto scenario = prepare_scenario(small_config());
  for (const auto scheme :
       {Scheme::kSplicer, Scheme::kSpider, Scheme::kFlash, Scheme::kLandmark,
        Scheme::kA2l, Scheme::kShortestPath}) {
    const auto m = run_scheme(scenario, scheme);
    EXPECT_EQ(m.payments_generated, 400u) << to_string(scheme);
    EXPECT_GE(m.tsr(), 0.0);
    EXPECT_LE(m.tsr(), 1.0);
    EXPECT_GE(m.normalized_throughput(), 0.0);
    EXPECT_LE(m.normalized_throughput(), 1.0);
    EXPECT_EQ(m.payments_completed + m.payments_failed, 400u)
        << to_string(scheme) << ": every payment must resolve";
    EXPECT_GT(m.messages.total(), 0u);
  }
}

TEST(RunScheme, SplicerBeatsNaiveBaselines) {
  const auto scenario = prepare_scenario(small_config(21));
  const auto splicer = run_scheme(scenario, Scheme::kSplicer);
  const auto naive = run_scheme(scenario, Scheme::kShortestPath);
  const auto landmark = run_scheme(scenario, Scheme::kLandmark);
  EXPECT_GT(splicer.tsr(), naive.tsr());
  EXPECT_GT(splicer.tsr(), landmark.tsr());
}

TEST(RunScheme, SplicerBeatsSpiderOnSameWorkload) {
  // The paper's headline comparison; the deadlock-prone workload favours
  // hub consolidation + global-state gating.
  const auto scenario = prepare_scenario(small_config(22));
  const auto splicer = run_scheme(scenario, Scheme::kSplicer);
  const auto spider = run_scheme(scenario, Scheme::kSpider);
  EXPECT_GT(splicer.tsr(), spider.tsr());
  EXPECT_GT(splicer.normalized_throughput(), spider.normalized_throughput());
}

TEST(RunScheme, RepeatRunsAreIdentical) {
  const auto scenario = prepare_scenario(small_config(23));
  const auto a = run_scheme(scenario, Scheme::kSplicer);
  const auto b = run_scheme(scenario, Scheme::kSplicer);
  EXPECT_EQ(a.payments_completed, b.payments_completed);
  EXPECT_EQ(a.tus_sent, b.tus_sent);
  EXPECT_EQ(a.messages.total(), b.messages.total());
}

TEST(RunScheme, UpdateTimeSweepKeepsSplicerStable) {
  // Fig. 7(c) property: Splicer TSR stays roughly flat as tau grows, while
  // A2L (epoch-bound tumbler) degrades under load.
  auto config = small_config(24);
  config.workload.payment_count = 600;
  config.workload.horizon_seconds = 6.0;  // ~100/s: stresses the A2L hub
  const auto scenario = prepare_scenario(config);
  SchemeConfig fast, slow;
  fast.protocol.tau_s = 0.1;
  slow.protocol.tau_s = 1.0;
  const auto splicer_fast = run_scheme(scenario, Scheme::kSplicer, fast);
  const auto splicer_slow = run_scheme(scenario, Scheme::kSplicer, slow);
  const auto a2l_fast = run_scheme(scenario, Scheme::kA2l, fast);
  const auto a2l_slow = run_scheme(scenario, Scheme::kA2l, slow);
  EXPECT_GT(splicer_slow.tsr(), splicer_fast.tsr() - 0.15);
  EXPECT_LT(a2l_slow.tsr(), a2l_fast.tsr());
}

TEST(Scenario, StreamingModeMatchesMaterialisedRuns) {
  // streaming=true keeps Scenario::payments empty; every run re-derives
  // the identical stream from the stored RNG snapshot, so payment-level
  // outcomes are exactly those of the materialised path.
  auto config = small_config(31);
  auto streaming_config = config;
  streaming_config.workload.streaming = true;

  const auto materialised = prepare_scenario(config);
  const auto streaming = prepare_scenario(streaming_config);
  EXPECT_EQ(materialised.payments.size(), 400u);
  EXPECT_TRUE(streaming.payments.empty());

  for (const auto scheme : {Scheme::kSplicer, Scheme::kShortestPath}) {
    const auto a = run_scheme(materialised, scheme);
    const auto b = run_scheme(streaming, scheme);
    EXPECT_EQ(a.payments_generated, b.payments_generated) << to_string(scheme);
    EXPECT_EQ(a.payments_completed, b.payments_completed) << to_string(scheme);
    EXPECT_EQ(a.payments_failed, b.payments_failed) << to_string(scheme);
    EXPECT_EQ(a.value_completed, b.value_completed) << to_string(scheme);
    EXPECT_DOUBLE_EQ(a.completion_delay_stats.sum(),
                     b.completion_delay_stats.sum())
        << to_string(scheme);
  }
}

/// Metrics of one scheme run recorded when the engine could still retain
/// every resolved PaymentState (the retained run was the reference the
/// evicting run had to match bit for bit).
struct RetainedReference {
  Scheme scheme;
  double epoch_s;
  std::size_t completed;
  std::size_t failed;
  Amount value_completed;
  double delay_sum;
  double tus_per_payment_sum;
  Amount failed_delivered_value;
  std::uint64_t tus_sent;
  std::uint64_t tus_failed;
  std::uint64_t messages;
  std::uint64_t scheduler_events;
  std::size_t peak_resident;  // every payment stayed resident
};

// small_config(33) under the default SchemeConfig, per-hop (epoch 0) and
// 5 ms batched settlement.
constexpr RetainedReference kRetainedReference[] = {
    {Scheme::kSplicer, 0.0, 360, 40, 18238530, 52.221027773819358, 6299, 6228000, 6299, 0, 43733, 55651, 400},
    {Scheme::kSpider, 0.0, 235, 165, 6849337, 72.814142355455246, 5551, 7303663, 5551, 1869, 112510, 46940, 400},
    {Scheme::kFlash, 0.0, 291, 109, 15014938, 6.0751609306687309, 740, 588687, 740, 297, 5256, 5238, 400},
    {Scheme::kLandmark, 0.0, 160, 240, 3176048, 6.1348208023297088, 3185, 2149843, 3329, 2216, 15236, 21000, 400},
    {Scheme::kA2l, 0.0, 384, 16, 26209580, 274.51801264927803, 400, 0, 400, 16, 4332, 3169, 400},
    {Scheme::kShortestPath, 0.0, 234, 166, 5346876, 3.1242344212161757, 400, 0, 400, 166, 2466, 2638, 400},
    {Scheme::kSplicer, 0.005, 355, 45, 17915723, 57.699450292350377, 6292, 6391620, 6292, 35, 44413, 24559, 400},
    {Scheme::kSpider, 0.005, 237, 163, 6885638, 75.044513062682853, 5548, 7322548, 5548, 1851, 111125, 21822, 400},
    {Scheme::kFlash, 0.005, 293, 107, 14586581, 6.2589903844541777, 738, 1011863, 738, 294, 5240, 2482, 400},
    {Scheme::kLandmark, 0.005, 167, 233, 3505078, 8.5181098922223626, 3170, 2104805, 3305, 2179, 15823, 4648, 400},
    {Scheme::kA2l, 0.005, 384, 16, 26209580, 274.57945264927832, 400, 0, 400, 16, 4332, 2139, 400},
    {Scheme::kShortestPath, 0.005, 235, 165, 5367418, 3.151289636011906, 400, 0, 400, 165, 2469, 1400, 400},
};

TEST(RunScheme, EvictionMatchesRetainedRunsForEveryScheme) {
  // Evicting resolved states only changes the memory profile. Real schemes
  // exercise the hard paths (multi-split retries that outlive a synchronous
  // payment resolution, batched-epoch deferred eviction), so every reported
  // metric must match the frozen retained-run reference bit for bit.
  const auto scenario = prepare_scenario(small_config(33));
  for (const auto& ref : kRetainedReference) {
    SchemeConfig config;
    config.engine.settlement_epoch_s = ref.epoch_s;
    const auto m = run_scheme(scenario, ref.scheme, config);
    const auto label = std::string(to_string(ref.scheme)) + " epoch " +
                       std::to_string(ref.epoch_s);
    EXPECT_EQ(m.payments_completed, ref.completed) << label;
    EXPECT_EQ(m.payments_failed, ref.failed) << label;
    EXPECT_EQ(m.value_completed, ref.value_completed) << label;
    EXPECT_DOUBLE_EQ(m.completion_delay_stats.sum(), ref.delay_sum) << label;
    EXPECT_DOUBLE_EQ(m.tus_per_payment_stats.sum(), ref.tus_per_payment_sum)
        << label;
    EXPECT_EQ(m.failed_delivered_value, ref.failed_delivered_value) << label;
    EXPECT_EQ(m.tus_sent, ref.tus_sent) << label;
    EXPECT_EQ(m.tus_failed, ref.tus_failed) << label;
    EXPECT_EQ(m.messages.total(), ref.messages) << label;
    EXPECT_EQ(m.scheduler_events, ref.scheduler_events) << label;
    // The memory profile is the only difference.
    EXPECT_EQ(m.states_evicted, m.payments_generated) << label;
    EXPECT_LT(m.peak_resident_states, ref.peak_resident) << label;
  }
}

TEST(Scenario, AlternativeWorkloadKindsRunEndToEnd) {
  for (const auto kind : {pcn::WorkloadKind::kBursty,
                          pcn::WorkloadKind::kHotspot}) {
    auto config = small_config(32);
    config.workload.kind = kind;
    config.workload.payment_count = 200;
    const auto scenario = prepare_scenario(config);
    EXPECT_EQ(scenario.payments.size(), 200u) << pcn::to_string(kind);
    const auto m = run_scheme(scenario, Scheme::kSplicer);
    EXPECT_EQ(m.payments_generated, 200u) << pcn::to_string(kind);
    EXPECT_EQ(m.payments_completed + m.payments_failed, 200u)
        << pcn::to_string(kind);
  }
}

TEST(SchemeNames, Strings) {
  EXPECT_STREQ(to_string(Scheme::kSplicer), "Splicer");
  EXPECT_STREQ(to_string(Scheme::kSpider), "Spider");
  EXPECT_STREQ(to_string(Scheme::kFlash), "Flash");
  EXPECT_STREQ(to_string(Scheme::kLandmark), "Landmark");
  EXPECT_STREQ(to_string(Scheme::kA2l), "A2L");
  EXPECT_EQ(comparison_schemes().size(), 5u);
}

}  // namespace
}  // namespace splicer::routing
