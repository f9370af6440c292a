#include "routing/parallel_experiment.h"

#include <optional>
#include <utility>

#include "common/rng.h"
#include "sim/parallel_for.h"

namespace splicer::routing {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t scenario_idx,
                          std::uint64_t scheme_tag, std::uint64_t trial) noexcept {
  // Hash-combine chain: fully mix before absorbing each component, so that
  // nearby (scenario, scheme, trial) triples land far apart.
  std::uint64_t state = base;
  state = common::splitmix64(state) ^ scenario_idx;
  state = common::splitmix64(state) ^ scheme_tag;
  state = common::splitmix64(state) ^ trial;
  return common::splitmix64(state);
}

namespace {

// Folds raw[(s * K + k) * T + t] into result[s][t], trials in order k, so
// the merge order never depends on which thread ran which simulation.
std::vector<std::vector<TaskResult>> merge_trials(
    std::vector<EngineMetrics>& raw, std::size_t S, std::size_t K,
    std::size_t T) {
  std::vector<std::vector<TaskResult>> results(S);
  for (std::size_t s = 0; s < S; ++s) {
    results[s].resize(T);
    for (std::size_t t = 0; t < T; ++t) {
      TaskResult& cell = results[s][t];
      cell.trials.reserve(K);
      for (std::size_t k = 0; k < K; ++k) {
        EngineMetrics& m = raw[(s * K + k) * T + t];
        cell.tsr.add(m.tsr());
        cell.throughput.add(m.normalized_throughput());
        cell.delay_s.add(m.average_delay_s());
        cell.messages.add(static_cast<double>(m.messages.total()));
        cell.peak_resident.add(static_cast<double>(m.peak_resident_states));
        cell.trials.push_back(std::move(m));
      }
    }
  }
  return results;
}

}  // namespace

ParallelRunner::ParallelRunner(ParallelRunnerConfig config)
    : config_(config) {
  if (config_.trials == 0) config_.trials = 1;
}

std::vector<std::vector<TaskResult>> ParallelRunner::run(
    const std::vector<ScenarioConfig>& scenarios,
    const std::vector<SchemeTask>& tasks) {
  const std::size_t S = scenarios.size();
  const std::size_t K = config_.trials;
  const std::size_t T = tasks.size();

  // Phase 1: prepare each (scenario, trial) workload once. Trial 0 keeps
  // the caller's seed so results match the sequential path exactly; later
  // trials re-derive the scenario seed (scheme_tag 0: the workload must be
  // shared by every scheme within a trial).
  // optional<>: Scenario has no default constructor (Network requires funds).
  std::vector<std::optional<Scenario>> prepared(S * K);
  sim::parallel_for(config_.threads, S * K, [&](std::size_t i) {
    const std::size_t s = i / K;
    const std::size_t k = i % K;
    ScenarioConfig config = scenarios[s];
    if (k > 0) config.seed = derive_seed(scenarios[s].seed, s, 0, k);
    prepared[i] = prepare_scenario(config);
  });

  // Phase 2: every (scenario, trial, task) simulation. Trial 0 keeps the
  // caller's engine seed (sequential parity); later trials derive it per
  // scheme so repetitions are independent on the engine side too.
  std::vector<EngineMetrics> raw(S * K * T);
  sim::parallel_for(config_.threads, raw.size(), [&](std::size_t i) {
    const std::size_t s = i / T / K;
    const std::size_t k = i / T % K;
    const std::size_t t = i % T;
    SchemeConfig config = tasks[t].config;
    if (k > 0) {
      config.engine.seed =
          derive_seed(scenarios[s].seed, s,
                      static_cast<std::uint64_t>(tasks[t].scheme) + 1, k);
    }
    raw[i] = run_scheme(*prepared[i / T], tasks[t].scheme, config);
  });
  prepared.clear();  // scenarios can be large (3000-node networks)
  return merge_trials(raw, S, K, T);
}

std::vector<TaskResult> ParallelRunner::run(const ScenarioConfig& scenario,
                                            const std::vector<Scheme>& schemes) {
  std::vector<SchemeTask> tasks;
  tasks.reserve(schemes.size());
  for (const auto scheme : schemes) tasks.push_back({scheme, {}, {}});
  auto grid = run(std::vector<ScenarioConfig>{scenario}, tasks);
  return std::move(grid.front());
}

std::vector<std::vector<TaskResult>> ParallelRunner::run_prepared(
    const std::vector<Scenario>& scenarios, const std::vector<SchemeTask>& tasks) {
  const std::size_t T = tasks.size();
  std::vector<EngineMetrics> raw(scenarios.size() * T);
  sim::parallel_for(config_.threads, raw.size(), [&](std::size_t i) {
    const SchemeTask& task = tasks[i % T];
    raw[i] = run_scheme(scenarios[i / T], task.scheme, task.config);
  });
  return merge_trials(raw, scenarios.size(), 1, T);
}

std::vector<SchemeTask> comparison_tasks(SchemeConfig config) {
  std::vector<SchemeTask> tasks;
  for (const auto scheme : comparison_schemes()) {
    tasks.push_back({scheme, config, {}});
  }
  return tasks;
}

}  // namespace splicer::routing
