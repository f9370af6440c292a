#include "routing/parallel_experiment.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace splicer::routing {
namespace {

/// Small but non-trivial evaluation point: big enough to exercise queueing
/// and failures, small enough for an 8-way sweep in test time.
ScenarioConfig tiny_config() {
  ScenarioConfig config;
  config.seed = 7;
  config.topology.nodes = 60;
  config.placement.candidate_count = 6;
  config.workload.payment_count = 150;
  config.workload.horizon_seconds = 5.0;
  return config;
}

void expect_identical(const EngineMetrics& a, const EngineMetrics& b) {
  EXPECT_EQ(a.payments_generated, b.payments_generated);
  EXPECT_EQ(a.payments_completed, b.payments_completed);
  EXPECT_EQ(a.payments_failed, b.payments_failed);
  EXPECT_EQ(a.value_generated, b.value_generated);
  EXPECT_EQ(a.value_completed, b.value_completed);
  EXPECT_EQ(a.completion_delay_stats.sum(),
            b.completion_delay_stats.sum());  // bit-exact
  EXPECT_EQ(a.tus_sent, b.tus_sent);
  EXPECT_EQ(a.tus_delivered, b.tus_delivered);
  EXPECT_EQ(a.tus_failed, b.tus_failed);
  EXPECT_EQ(a.tus_marked, b.tus_marked);
  EXPECT_EQ(a.tu_fail_reasons, b.tu_fail_reasons);
  EXPECT_EQ(a.payment_fail_reasons, b.payment_fail_reasons);
  EXPECT_EQ(a.messages.data_hops, b.messages.data_hops);
  EXPECT_EQ(a.messages.ack_messages, b.messages.ack_messages);
  EXPECT_EQ(a.messages.probe_messages, b.messages.probe_messages);
  EXPECT_EQ(a.messages.sync_messages, b.messages.sync_messages);
  EXPECT_EQ(a.messages.control_messages, b.messages.control_messages);
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
  EXPECT_EQ(a.scheduler_events, b.scheduler_events);
  EXPECT_EQ(a.settlement_flushes, b.settlement_flushes);
  EXPECT_EQ(a.settlements_batched, b.settlements_batched);
  EXPECT_EQ(a.peak_payment_buffer, b.peak_payment_buffer);
  EXPECT_EQ(a.peak_resident_states, b.peak_resident_states);
  EXPECT_EQ(a.states_evicted, b.states_evicted);
  EXPECT_EQ(a.tus_per_payment_stats.sum(), b.tus_per_payment_stats.sum());
  EXPECT_EQ(a.failed_delivered_value, b.failed_delivered_value);
  EXPECT_EQ(a.price_updates_skipped, b.price_updates_skipped);
  EXPECT_EQ(a.probe_sums_reused, b.probe_sums_reused);
  EXPECT_EQ(a.active_pairs_peak, b.active_pairs_peak);
  EXPECT_EQ(a.mutation_events, b.mutation_events);
  EXPECT_EQ(a.resident_tus_at_end, b.resident_tus_at_end);
  EXPECT_EQ(a.wedged_queue_value, b.wedged_queue_value);
}

TEST(DeriveSeed, StableAndComponentSensitive) {
  const auto base = derive_seed(42, 0, 0, 0);
  EXPECT_EQ(base, derive_seed(42, 0, 0, 0));  // pure function

  // Every component must matter, and no two nearby points may collide.
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 4; ++s) {
    for (std::uint64_t g = 0; g < 4; ++g) {
      for (std::uint64_t k = 0; k < 4; ++k) {
        seen.insert(derive_seed(42, s, g, k));
      }
    }
  }
  EXPECT_EQ(seen.size(), 4u * 4u * 4u);
  EXPECT_EQ(seen.count(derive_seed(43, 0, 0, 0)), 0u);
}

TEST(ParallelRunner, TrialZeroMatchesSequentialPath) {
  const auto config = tiny_config();
  const auto schemes = comparison_schemes();

  // Sequential reference: exactly what the old harness does.
  const auto scenario = prepare_scenario(config);
  std::vector<EngineMetrics> reference;
  reference.reserve(schemes.size());
  for (const auto scheme : schemes) {
    reference.push_back(run_scheme(scenario, scheme));
  }

  ParallelRunner runner({/*threads=*/8, /*trials=*/1});
  const auto results = runner.run(config, schemes);
  ASSERT_EQ(results.size(), schemes.size());
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    SCOPED_TRACE(to_string(schemes[i]));
    expect_identical(results[i].first(), reference[i]);
  }
}

TEST(ParallelRunner, OneThreadAndEightThreadsAreBitIdentical) {
  const std::vector<ScenarioConfig> scenarios{tiny_config(), [] {
                                                auto c = tiny_config();
                                                c.topology.fund_scale = 2.0;
                                                return c;
                                              }()};
  const auto tasks = comparison_tasks();

  ParallelRunner single({/*threads=*/1, /*trials=*/2});
  ParallelRunner wide({/*threads=*/8, /*trials=*/2});
  const auto a = single.run(scenarios, tasks);
  const auto b = wide.run(scenarios, tasks);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size());
    for (std::size_t t = 0; t < a[s].size(); ++t) {
      ASSERT_EQ(a[s][t].trials.size(), b[s][t].trials.size());
      for (std::size_t k = 0; k < a[s][t].trials.size(); ++k) {
        SCOPED_TRACE("scenario " + std::to_string(s) + " task " +
                     std::to_string(t) + " trial " + std::to_string(k));
        expect_identical(a[s][t].trials[k], b[s][t].trials[k]);
      }
      // The merged stats are derived from identical inputs in identical
      // order, so they must match bit-for-bit as well.
      EXPECT_EQ(a[s][t].tsr.mean(), b[s][t].tsr.mean());
      EXPECT_EQ(a[s][t].throughput.mean(), b[s][t].throughput.mean());
      EXPECT_EQ(a[s][t].messages.sum(), b[s][t].messages.sum());
    }
  }
}

TEST(ParallelRunner, OneThreadAndFourThreadsAreBitIdenticalUnderMutations) {
  // The hostile, batched corner of the determinism contract: fault, churn
  // and fee-policy mutators rewrite the topology mid-run and settlement is
  // batched per 10 ms epoch, yet the thread count may change only which
  // worker runs a simulation, never what it computes.
  SchemeConfig hostile;
  hostile.engine.settlement_epoch_s = 0.010;
  hostile.engine.hostile.fault_rate = 1.5;
  hostile.engine.hostile.churn_rate = 1.0;
  hostile.engine.hostile.fee_policy_rate = 0.5;
  std::vector<SchemeTask> tasks;
  for (const auto scheme :
       {Scheme::kSplicer, Scheme::kSpider, Scheme::kFlash, Scheme::kLandmark,
        Scheme::kA2l, Scheme::kShortestPath}) {
    tasks.push_back({scheme, hostile, {}});
  }

  ParallelRunner single({/*threads=*/1, /*trials=*/2});
  ParallelRunner wide({/*threads=*/4, /*trials=*/2});
  const auto a = single.run({tiny_config()}, tasks).front();
  const auto b = wide.run({tiny_config()}, tasks).front();

  ASSERT_EQ(a.size(), tasks.size());
  ASSERT_EQ(b.size(), tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    ASSERT_EQ(a[t].trials.size(), 2u);
    ASSERT_EQ(b[t].trials.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
      SCOPED_TRACE(std::string(tasks[t].name()) + " trial " +
                   std::to_string(k));
      EXPECT_GT(a[t].trials[k].mutation_events, 0u);
      EXPECT_GT(a[t].trials[k].settlement_flushes, 0u);
      expect_identical(a[t].trials[k], b[t].trials[k]);
    }
  }
}

TEST(ParallelRunner, TrialsProduceIndependentWorkloadsAndMergedStats) {
  ParallelRunner runner({/*threads=*/4, /*trials=*/3});
  const auto results =
      runner.run(tiny_config(), {Scheme::kSplicer, Scheme::kShortestPath});

  for (const auto& cell : results) {
    ASSERT_EQ(cell.trials.size(), 3u);
    EXPECT_EQ(cell.tsr.count(), 3u);
    EXPECT_EQ(cell.throughput.count(), 3u);
    EXPECT_EQ(cell.delay_s.count(), 3u);
    EXPECT_EQ(cell.messages.count(), 3u);
    EXPECT_GE(cell.tsr.mean(), 0.0);
    EXPECT_LE(cell.tsr.mean(), 1.0);
    EXPECT_LE(cell.tsr.min(), cell.tsr.mean());
    EXPECT_GE(cell.tsr.max(), cell.tsr.mean());

    // Derived-seed trials run different workloads: the exact generated
    // value should differ between at least one pair of trials.
    const bool any_different =
        cell.trials[0].value_generated != cell.trials[1].value_generated ||
        cell.trials[1].value_generated != cell.trials[2].value_generated;
    EXPECT_TRUE(any_different);
  }
}

TEST(ParallelRunner, LabelsNameTaskVariants) {
  SchemeTask plain{Scheme::kSplicer, {}, {}};
  SchemeTask labelled{Scheme::kSplicer, {}, "Splicer tau=0.1"};
  EXPECT_STREQ(plain.name(), "Splicer");
  EXPECT_STREQ(labelled.name(), "Splicer tau=0.1");
}

TEST(ParallelRunner, ZeroTrialsIsClampedToOne) {
  ParallelRunner runner({/*threads=*/2, /*trials=*/0});
  EXPECT_EQ(runner.config().trials, 1u);
  const auto results = runner.run(tiny_config(), {Scheme::kShortestPath});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results.front().trials.size(), 1u);
}

}  // namespace
}  // namespace splicer::routing
