// Cross-seed robustness sweeps: the headline orderings must not be
// artifacts of one RNG stream, and core invariants must hold across
// topology families and parameter corners — including the hostile-world
// scenario pack (fault injection, channel churn, adversarial policies),
// whose churn storms must never wedge liquidity in any scheme.

#include <gtest/gtest.h>

#include "routing/experiment.h"

namespace splicer::routing {
namespace {

class SeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweepTest, SplicerLeadsNaiveAndLandmarkOnEverySeed) {
  ScenarioConfig config;
  config.seed = GetParam();
  config.topology.nodes = 80;
  config.placement.candidate_count = 8;
  config.workload.payment_count = 300;
  config.workload.horizon_seconds = 6.0;
  const auto scenario = prepare_scenario(config);
  const auto splicer = run_scheme(scenario, Scheme::kSplicer);
  const auto naive = run_scheme(scenario, Scheme::kShortestPath);
  const auto landmark = run_scheme(scenario, Scheme::kLandmark);
  EXPECT_GT(splicer.tsr(), naive.tsr()) << "seed " << GetParam();
  EXPECT_GT(splicer.tsr(), landmark.tsr()) << "seed " << GetParam();
  EXPECT_GT(splicer.normalized_throughput(), naive.normalized_throughput())
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(101, 202, 303, 404, 505));

class TopologyFamilyTest : public ::testing::TestWithParam<bool> {};

TEST_P(TopologyFamilyTest, PipelineWorksOnBothTopologyFamilies) {
  ScenarioConfig config;
  config.seed = 7;
  config.topology.nodes = 120;
  config.topology.scale_free = GetParam();
  config.placement.candidate_count = 8;
  config.workload.payment_count = 300;
  config.workload.horizon_seconds = 6.0;
  const auto scenario = prepare_scenario(config);
  const auto m = run_scheme(scenario, Scheme::kSplicer);
  EXPECT_EQ(m.payments_completed + m.payments_failed, 300u);
  EXPECT_GT(m.tsr(), 0.3);
}

INSTANTIATE_TEST_SUITE_P(Families, TopologyFamilyTest, ::testing::Bool());

TEST(ParameterCorners, ExtremeFundScarcity) {
  ScenarioConfig config;
  config.seed = 9;
  config.topology.nodes = 60;
  config.topology.fund_scale = 0.05;  // starved channels
  config.placement.candidate_count = 6;
  config.workload.payment_count = 200;
  config.workload.horizon_seconds = 5.0;
  const auto scenario = prepare_scenario(config);
  for (const auto scheme : comparison_schemes()) {
    const auto m = run_scheme(scenario, scheme);
    // Sanity only: no crashes, conservation (checked in-engine), resolution.
    EXPECT_EQ(m.payments_completed + m.payments_failed, 200u)
        << to_string(scheme);
  }
}

TEST(ParameterCorners, ExtremeAbundance) {
  ScenarioConfig config;
  config.seed = 10;
  config.topology.nodes = 60;
  config.topology.fund_scale = 50.0;  // effectively unconstrained funds
  config.placement.candidate_count = 6;
  config.workload.payment_count = 200;
  config.workload.horizon_seconds = 5.0;
  const auto scenario = prepare_scenario(config);
  const auto m = run_scheme(scenario, Scheme::kSplicer);
  EXPECT_GT(m.tsr(), 0.9);  // nothing should fail with unlimited funds
}

TEST(ParameterCorners, SinglePaymentWorkload) {
  ScenarioConfig config;
  config.seed = 11;
  config.topology.nodes = 40;
  config.placement.candidate_count = 4;
  config.workload.payment_count = 1;
  config.workload.horizon_seconds = 0.5;
  const auto scenario = prepare_scenario(config);
  for (const auto scheme : comparison_schemes()) {
    const auto m = run_scheme(scenario, scheme);
    EXPECT_EQ(m.payments_generated, 1u) << to_string(scheme);
  }
}

TEST(ParameterCorners, TinyUpdateTime) {
  ScenarioConfig config;
  config.seed = 12;
  config.topology.nodes = 60;
  config.placement.candidate_count = 6;
  config.workload.payment_count = 150;
  config.workload.horizon_seconds = 4.0;
  const auto scenario = prepare_scenario(config);
  SchemeConfig scheme_config;
  scheme_config.protocol.tau_s = 0.01;  // 10 ms updates
  const auto m = run_scheme(scenario, Scheme::kSplicer, scheme_config);
  EXPECT_GT(m.tsr(), 0.3);
  EXPECT_GT(m.messages.probe_messages, 0u);
}

class HostileSeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HostileSeedSweepTest, FaultInjectionPreservesConservationOnEverySeed) {
  // Node faults at a rate that downs most of the network over the run:
  // every payment still resolves exactly once, the engine's in-run funds
  // conservation check holds (finish_run() throws otherwise), and nothing
  // stays resident at quiescence.
  ScenarioConfig config;
  config.seed = GetParam();
  config.topology.nodes = 80;
  config.placement.candidate_count = 8;
  config.workload.payment_count = 300;
  config.workload.horizon_seconds = 6.0;
  const auto scenario = prepare_scenario(config);
  SchemeConfig scheme_config;
  scheme_config.engine.hostile.fault_rate = 4.0;
  scheme_config.engine.hostile.mean_down_s = 0.4;
  scheme_config.engine.hostile.seed = GetParam() * 1315423911u + 1;
  for (const auto scheme : comparison_schemes()) {
    const auto m = run_scheme(scenario, scheme, scheme_config);
    EXPECT_EQ(m.payments_completed + m.payments_failed, 300u)
        << to_string(scheme) << " seed " << GetParam();
    EXPECT_GT(m.mutation_events, 0u) << to_string(scheme);
    EXPECT_EQ(m.resident_tus_at_end, 0u) << to_string(scheme);
    EXPECT_EQ(m.wedged_queue_value, 0) << to_string(scheme);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HostileSeedSweepTest,
                         ::testing::Values(61, 62, 63, 64, 65));

TEST(DeadlockUnderChurn, StormNeverWedgesAnySchemeOrSettlementMode) {
  // The stress gate: a combined fault + churn + policy storm across all six
  // schemes, exact and batched settlement. A TU holding a lock on a channel that closes must unwind
  // (refund) rather than park forever, and queue accounting must release
  // every queued token — zero resident TUs and zero wedged queue value at
  // quiescence, in every combination.
  ScenarioConfig config;
  config.seed = 57;
  config.topology.nodes = 60;
  config.placement.candidate_count = 6;
  config.workload.payment_count = 200;
  config.workload.horizon_seconds = 6.0;
  const auto scenario = prepare_scenario(config);

  SchemeConfig storm;
  storm.engine.hostile.fault_rate = 3.0;
  storm.engine.hostile.mean_down_s = 0.5;
  storm.engine.hostile.churn_rate = 4.0;
  storm.engine.hostile.mean_closed_s = 0.5;
  storm.engine.hostile.fee_policy_rate = 1.0;
  storm.engine.hostile.timelock_rate = 1.0;
  storm.engine.hostile.timelock_budget = 16;

  const Scheme all_six[] = {Scheme::kSplicer,  Scheme::kSpider,
                            Scheme::kFlash,    Scheme::kLandmark,
                            Scheme::kA2l,      Scheme::kShortestPath};
  for (const auto scheme : all_six) {
    for (const double epoch_s : {0.0, 0.010}) {
      SchemeConfig scheme_config = storm;
      scheme_config.engine.settlement_epoch_s = epoch_s;
      const auto m = run_scheme(scenario, scheme, scheme_config);
      const auto label = std::string(to_string(scheme)) + " epoch=" +
                         std::to_string(epoch_s);
      EXPECT_EQ(m.payments_completed + m.payments_failed, 200u) << label;
      EXPECT_GT(m.mutation_events, 0u) << label;
      EXPECT_EQ(m.resident_tus_at_end, 0u) << label;
      EXPECT_EQ(m.wedged_queue_value, 0) << label;
      EXPECT_EQ(m.tus_delivered + m.tus_failed, m.tus_sent) << label;
    }
  }
}

TEST(DeadlockUnderChurn, ChurnFailuresCarryTheChannelClosedReason) {
  // A churn-only storm must attribute its TU failures to kChannelClosed
  // (with kNodeOffline impossible: no fault mutator is active).
  ScenarioConfig config;
  config.seed = 58;
  config.topology.nodes = 60;
  config.placement.candidate_count = 6;
  config.workload.payment_count = 300;
  config.workload.horizon_seconds = 6.0;
  const auto scenario = prepare_scenario(config);
  SchemeConfig scheme_config;
  scheme_config.engine.hostile.churn_rate = 6.0;
  scheme_config.engine.hostile.mean_closed_s = 1.0;
  std::uint64_t closed_failures = 0;
  for (const auto scheme : comparison_schemes()) {
    const auto m = run_scheme(scenario, scheme, scheme_config);
    const auto reason = [&m](FailReason r) {
      return m.tu_fail_reasons[static_cast<std::size_t>(r)] +
             m.payment_fail_reasons[static_cast<std::size_t>(r)];
    };
    closed_failures += reason(FailReason::kChannelClosed);
    EXPECT_EQ(reason(FailReason::kNodeOffline), 0u) << to_string(scheme);
  }
  EXPECT_GT(closed_failures, 0u);
}

}  // namespace
}  // namespace splicer::routing
