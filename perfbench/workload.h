#pragma once

// The benchmark's workloads and one pass over a workload.
//
// A pass is a fixed amount of host work made from the workload seed: set
// up the routing scenarios and the placement instances (timed as setup),
// then solve every placement instance and run every scheme over every
// routing scenario (timed as the pass's wall and CPU time). The payments
// arrive open-loop in simulated time (Poisson arrivals from the traffic
// generator), so the simulated outcomes are deterministic: every pass of
// one seed must reproduce them exactly, traced or not.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "routing/experiment.h"
#include "trace.h"

namespace perfbench {

/// Small placement instances (12-node Watts-Strogatz, ring degree 4,
/// rewiring 0.2: the MILP test suite's family) solved by the MILP,
/// exhaustive search and double greedy: one solve triple per (instance,
/// omega in kSolveOmegas).
struct ExactSolves {
  std::size_t instances = 0;
  std::size_t candidates = 3;
};

/// The omega sweep of every solve phase.
inline const std::vector<double> kSolveOmegas{0.02, 0.1, 0.5};

struct Workload {
  std::string name;
  std::string why;
  splicer::routing::ScenarioConfig scenario;  // seed set per pass
  std::size_t trials = 1;                     // derived-seed scenarios per pass
  /// Further derived-seed scenarios on which only Splicer runs, so that the
  /// simulated Splicer metrics average over more topologies where the
  /// baselines are too slow to run on every one.
  std::size_t splicer_only_trials = 0;
  splicer::routing::SchemeConfig schemes;
  ExactSolves exact;
  /// Exhaustive search + double greedy over kSolveOmegas on the routing
  /// scenario's own topology and candidate count.
  bool scenario_sweep = false;
};

[[nodiscard]] const std::vector<Workload>& workloads();

/// The six schemes, in reporting order.
[[nodiscard]] const std::vector<splicer::routing::Scheme>& all_schemes();

/// Lower-case metric key of a scheme ("splicer", "shortest_path", ...).
[[nodiscard]] std::string scheme_key(splicer::routing::Scheme scheme);

/// Per-layer figures of one traced pass. Times are seconds, summed over
/// the pass; counts are exact.
struct LayerSample {
  std::map<std::string, double> values;
  /// Per-call samples behind the percentile metrics, keyed like `values`.
  std::map<std::string, std::vector<double>> samples;
};

struct PassResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double routing_s = 0.0;      // the scheme runs' share of wall_s
  std::uint64_t payments = 0;  // resolved across all scheme runs
  std::size_t operations = 0;  // scheme runs + placement solve triples
  std::vector<std::string> failures;  // one line per failed operation
  std::uint64_t digest = 0;           // hash of every simulated output

  // Simulated outcomes (deterministic per seed).
  // The splicer_* figures are means over every trial Splicer ran on; the
  // comparisons with the baselines use only the trials all six ran on.
  double splicer_tsr = 0.0;
  double splicer_throughput = 0.0;
  double splicer_delay_s = 0.0;
  double best_baseline_throughput = 0.0;  // max of Spider/Flash/Landmark/A2L
  double splicer_vs_best = 0.0;  // Splicer throughput / best_baseline_throughput
  double mean_tsr = 0.0;
  double approx_ratio = 0.0;  // mean double-greedy C_B / optimal C_B

  LayerSample layers;  // traced passes only
};

/// Runs one pass. `log` non-null = traced: routers run behind
/// TracingRouter, every layer call is a span, and the per-layer probes
/// (graph kernels, the scenario pipeline step by step) run after the
/// timed interval.
[[nodiscard]] PassResult run_pass(const Workload& workload, std::uint64_t seed,
                                  SpanLog* log);

}  // namespace perfbench
