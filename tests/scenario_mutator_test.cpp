// Hostile-world scenario mutators: determinism contract (equal seeds =>
// equal streams), time ordering with stable
// equal-timestamp sequence, follow-up pairing, HostileConfig validation,
// the FailReason additions, and the engine-level rate-0 == benign parity
// gate.

#include "pcn/scenario_mutator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "routing/experiment.h"
#include "routing/router.h"

namespace splicer::pcn {
namespace {

std::vector<MutationEvent> drain(ScenarioMutator& mutator) {
  std::vector<MutationEvent> events;
  while (auto e = mutator.next()) events.push_back(*e);
  return events;
}

bool same_event(const MutationEvent& a, const MutationEvent& b) {
  return a.time == b.time && a.kind == b.kind && a.node == b.node &&
         a.channel == b.channel && a.policy.fee_base == b.policy.fee_base &&
         a.policy.fee_proportional == b.policy.fee_proportional &&
         a.policy.min_htlc == b.policy.min_htlc &&
         a.policy.timelock == b.policy.timelock;
}

TEST(ScenarioMutator, EqualSeedsReproduceTheStream) {
  NodeFaultMutator mutator(64, 2.0, 0.4, 30.0, 77);
  NodeFaultMutator twin(64, 2.0, 0.4, 30.0, 77);
  const auto first = drain(mutator);
  ASSERT_FALSE(first.empty());
  const auto second = drain(twin);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(same_event(first[i], second[i])) << "event " << i;
  }
}

TEST(ScenarioMutator, DifferentSeedsDiverge) {
  ChannelChurnMutator a(128, 1.5, 0.3, 30.0, 1);
  ChannelChurnMutator b(128, 1.5, 0.3, 30.0, 2);
  const auto ea = drain(a);
  const auto eb = drain(b);
  bool differ = ea.size() != eb.size();
  for (std::size_t i = 0; !differ && i < ea.size(); ++i) {
    differ = !same_event(ea[i], eb[i]);
  }
  EXPECT_TRUE(differ);
}

TEST(ScenarioMutator, TimesAreNondecreasingAndWithinHorizon) {
  const double horizon = 20.0;
  ChannelChurnMutator mutator(200, 3.0, 0.5, horizon, 9);
  const auto events = drain(mutator);
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, events[i - 1].time) << "event " << i;
  }
  // Primaries stop at the horizon; follow-ups (reopen) may trail past it.
  for (const auto& e : events) {
    if (e.kind == MutationEvent::Kind::kChannelClose) {
      EXPECT_LT(e.time, horizon);
    }
  }
}

TEST(ScenarioMutator, EveryPrimaryPairsWithItsFollowup) {
  NodeFaultMutator mutator(32, 2.0, 0.4, 15.0, 5);
  std::vector<int> depth(32, 0);
  std::size_t downs = 0, ups = 0;
  while (auto e = mutator.next()) {
    if (e->kind == MutationEvent::Kind::kNodeDown) {
      ++downs;
      ++depth[e->node];
    } else {
      ASSERT_EQ(e->kind, MutationEvent::Kind::kNodeUp);
      ++ups;
      --depth[e->node];
      // A recovery can only follow an earlier failure of the same node.
      EXPECT_GE(depth[e->node], 0) << "node " << e->node;
    }
  }
  EXPECT_GT(downs, 0u);
  EXPECT_EQ(downs, ups);  // every outage eventually heals
}

TEST(ScenarioMutator, MakeMutatorsHonoursZeroRates) {
  HostileConfig config;  // all rates zero
  EXPECT_FALSE(config.any_mutation_active());
  EXPECT_TRUE(make_mutators(config, 50, 100, 10.0).empty());

  config.churn_rate = 1.0;
  config.timelock_rate = 0.5;
  const auto mutators = make_mutators(config, 50, 100, 10.0);
  ASSERT_EQ(mutators.size(), 2u);  // fixed order: churn before timelock
  EXPECT_EQ(mutators[0]->name(), "channel-churn");
  EXPECT_EQ(mutators[1]->name(), "timelock");
}

TEST(ScenarioMutator, FeePolicyPayloadsRespectCaps) {
  HostileConfig config;
  config.fee_policy_rate = 4.0;
  config.fee_base_cap = 500;
  config.fee_proportional_cap = 0.02;
  config.min_htlc_cap = 50;
  const auto mutators = make_mutators(config, 50, 120, 20.0);
  ASSERT_EQ(mutators.size(), 1u);
  std::size_t seen = 0;
  while (auto e = mutators[0]->next()) {
    ASSERT_EQ(e->kind, MutationEvent::Kind::kFeePolicy);
    EXPECT_LT(e->channel, 120u);
    EXPECT_GE(e->policy.fee_base, 0);
    EXPECT_LE(e->policy.fee_base, 500);
    EXPECT_GE(e->policy.fee_proportional, 0.0);
    EXPECT_LE(e->policy.fee_proportional, 0.02);
    EXPECT_GE(e->policy.min_htlc, 0);
    EXPECT_LE(e->policy.min_htlc, 50);
    ++seen;
  }
  EXPECT_GT(seen, 0u);
}

TEST(HostileConfig, ValidateAcceptsDefaultsAndActivePacks) {
  HostileConfig config;
  EXPECT_NO_THROW(config.validate());
  config.fault_rate = 2.0;
  config.churn_rate = 1.0;
  config.fee_policy_rate = 0.5;
  config.timelock_rate = 0.25;
  config.timelock_budget = 12;
  EXPECT_NO_THROW(config.validate());
}

TEST(HostileConfig, ValidateRejectsInconsistentKnobs) {
  const auto rejects = [](auto&& tweak) {
    HostileConfig config;
    tweak(config);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  rejects([](HostileConfig& c) { c.fault_rate = -1.0; });
  rejects([](HostileConfig& c) { c.churn_rate = -0.5; });
  rejects([](HostileConfig& c) { c.fee_policy_rate = -2.0; });
  rejects([](HostileConfig& c) { c.timelock_rate = -0.1; });
  rejects([](HostileConfig& c) {
    c.fault_rate = 1.0;
    c.mean_down_s = 0.0;
  });
  rejects([](HostileConfig& c) {
    c.churn_rate = 1.0;
    c.mean_closed_s = -3.0;
  });
  rejects([](HostileConfig& c) { c.fee_base_cap = -1; });
  rejects([](HostileConfig& c) { c.fee_proportional_cap = 1.5; });
  rejects([](HostileConfig& c) {
    c.timelock_rate = 1.0;
    c.timelock_max = 0;
  });
  rejects([](HostileConfig& c) { c.timelock_budget = 0; });
}

TEST(FailReason, HostileReasonsRoundTripThroughToString) {
  using routing::FailReason;
  static_assert(routing::kFailReasonCount == 8,
                "hostile-world reasons must be counted");
  EXPECT_STREQ(routing::to_string(FailReason::kNodeOffline), "node-offline");
  EXPECT_STREQ(routing::to_string(FailReason::kChannelClosed),
               "channel-closed");
  // Every enumerator renders a real label (the "?" fallthrough is dead).
  for (std::size_t r = 0; r < routing::kFailReasonCount; ++r) {
    EXPECT_STRNE(routing::to_string(static_cast<FailReason>(r)), "?");
  }
}

// ---- engine-level parity gate ----------------------------------------------

routing::ScenarioConfig parity_config() {
  routing::ScenarioConfig config;
  config.seed = 91;
  config.topology.nodes = 60;
  config.placement.candidate_count = 6;
  config.workload.payment_count = 150;
  config.workload.horizon_seconds = 6.0;
  return config;
}

void expect_identical(const routing::EngineMetrics& a,
                      const routing::EngineMetrics& b, const char* what) {
  EXPECT_EQ(a.payments_completed, b.payments_completed) << what;
  EXPECT_EQ(a.payments_failed, b.payments_failed) << what;
  EXPECT_EQ(a.value_completed, b.value_completed) << what;
  EXPECT_EQ(a.tus_sent, b.tus_sent) << what;
  EXPECT_EQ(a.tus_delivered, b.tus_delivered) << what;
  EXPECT_EQ(a.tus_failed, b.tus_failed) << what;
  EXPECT_EQ(a.tu_fail_reasons, b.tu_fail_reasons) << what;
  EXPECT_EQ(a.payment_fail_reasons, b.payment_fail_reasons) << what;
  EXPECT_EQ(a.mutation_events, b.mutation_events) << what;
  EXPECT_EQ(a.messages.total(), b.messages.total()) << what;
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds) << what;
}

TEST(ScenarioMutator, RateZeroIsByteIdenticalToBenign) {
  // The whole pack disabled must not perturb a single metric — the
  // engine-level version of the CI fig7 byte-identity gate.
  const auto scenario = routing::prepare_scenario(parity_config());
  routing::SchemeConfig benign;
  routing::SchemeConfig hostile_off;
  hostile_off.engine.hostile.timelock_budget = 1000;  // bounded but slack
  for (const auto scheme : routing::comparison_schemes()) {
    const auto a = routing::run_scheme(scenario, scheme, benign);
    const auto b = routing::run_scheme(scenario, scheme, hostile_off);
    expect_identical(a, b, routing::to_string(scheme));
    EXPECT_EQ(b.mutation_events, 0u);
  }
}

}  // namespace
}  // namespace splicer::pcn
