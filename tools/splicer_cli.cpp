// splicer_cli - command-line front end for the Splicer reproduction.
//
//   splicer_cli compare  [--nodes N] [--payments N] [--seed S] [--tau MS]
//                        [--fund-scale X] [--value-scale X] [--scale-free]
//                        [--candidates N] [--omega W] [--horizon S]
//                        [--threads N] [--trials K] [--settlement-epoch MS]
//                        [--workload synthetic|trace|bursty|hotspot]
//                        [--trace-file CSV] [--streaming]
//                        [--burst-period S] [--burst-amplitude A]
//                        [--shift-interval S]
//                        [--fault-rate R] [--churn-rate R] [--fee-policy R]
//                        [--timelock-budget N]
//       run all six schemes on one shared scenario and print the comparison;
//       simulations fan out over N worker threads (0 = all hardware
//       threads) and, with K > 1, repeat over K derived-seed workloads and
//       report mean +/- 95% CI. --settlement-epoch > 0 batches engine
//       settlements per (channel, direction) per epoch (0 = exact per-hop).
//       --workload picks the traffic source (trace replays a
//       time,sender,receiver,amount CSV); --streaming makes every engine
//       run pull payments lazily instead of materialising the workload.
//       Every run evicts resolved payment states, so it holds
//       O(concurrency) of them (the "resident" column; "evicted" counts
//       the evictions). --tau must be finite and > 0, --settlement-epoch
//       finite.
//       The hostile-world knobs (all default off; see README "Hostile-world
//       scenarios") inject Poisson faults/churn/policy rewrites:
//       --fault-rate/--churn-rate/--fee-policy are events per second and
//       --timelock-budget bounds admissible path timelock depth
//
//   splicer_cli place    [--nodes N] [--candidates N] [--omega W] [--seed S]
//                        [--solver exhaustive|approx|milp|descent]
//       solve one placement instance and print the plan + costs
//
//   splicer_cli workflow [--value TOKENS] [--kmg N] [--seed S]
//       trace one encrypted payment workflow (Fig. 3) step by step
//
//   splicer_cli topology [--nodes N] [--seed S] [--scale-free]
//       print topology statistics for the generated PCN
//
// Every subcommand accepts only the keys listed for it. An unknown key, a
// key missing its value, or a number that does not parse in full prints
// the offending key plus the usage text and exits with status 2; a value
// the configuration rejects (e.g. --tau 0, --fault-rate -1) prints the
// reason and exits with status 2 too.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>

#include "common/table.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "placement/approx_solver.h"
#include "placement/cost_model.h"
#include "placement/exhaustive_solver.h"
#include "placement/milp_solver.h"
#include "routing/experiment.h"
#include "routing/parallel_experiment.h"
#include "splicer/workflow.h"

using namespace splicer;

namespace {

/// What a key takes: nothing (a bare flag), an unsigned integer, a real
/// number, or free text.
enum class Value { kFlag, kCount, kReal, kText };

struct Option {
  const char* key;
  Value value;
};

/// A command line the subcommand cannot run with; main() prints it with
/// the usage text and exits 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::uint64_t parse_count(const std::string& key, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
  // strtoull negates a leading '-' instead of failing ("-1" would become
  // 2^64 - 1), so a count must start with a digit.
  if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0 ||
      *end != '\0' || errno == ERANGE) {
    throw UsageError("--" + key + ": '" + text + "' is not an integer");
  }
  return value;
}

double parse_real(const std::string& key, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE) {
    throw UsageError("--" + key + ": '" + text + "' is not a number");
  }
  return value;
}

/// --key value / --flag parser, strict against the subcommand's declared
/// options: every key must be declared, every value-taking key needs a
/// value, and numeric values must parse in full.
class Args {
 public:
  Args(int argc, char** argv, std::span<const Option> options) {
    for (int i = 2; i < argc; ++i) {
      const std::string token = argv[i];
      if (token.rfind("--", 0) != 0) {
        throw UsageError("unexpected argument '" + token + "'");
      }
      const std::string key = token.substr(2);
      const auto option = std::find_if(
          options.begin(), options.end(),
          [&](const Option& o) { return key == o.key; });
      if (option == options.end()) {
        throw UsageError("unknown option '--" + key + "'");
      }
      if (option->value == Value::kFlag) {
        values_[key] = "1";
        continue;
      }
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        throw UsageError("--" + key + " needs a value");
      }
      const std::string value = argv[++i];
      if (option->value == Value::kCount) (void)parse_count(key, value);
      if (option->value == Value::kReal) (void)parse_real(key, value);
      values_[key] = value;
    }
  }

  [[nodiscard]] std::uint64_t u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : parse_count(key, it->second);
  }
  [[nodiscard]] double real(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : parse_real(key, it->second);
  }
  [[nodiscard]] std::string str(const std::string& key, std::string fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return values_.count(key) != 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Warns when a trace replay dropped rows: strict-mode replays otherwise
/// shrink the workload silently at the CLI level. Streaming scenarios never
/// materialise the trace, so a probe source is drained just for the count.
void warn_trace_skips(const routing::Scenario& scenario) {
  if (scenario.workload.kind != pcn::WorkloadKind::kTrace) return;
  std::size_t skipped = scenario.trace_rows_skipped;
  if (scenario.workload.streaming) {
    // Iterate without storing: skipped_ is counted by next(), and a
    // multi-million-row trace must not be materialised just for the count.
    const auto probe = scenario.make_source();
    while (probe->next()) {
    }
    if (const auto* trace =
            dynamic_cast<const pcn::TraceSource*>(probe.get())) {
      skipped = trace->rows_skipped();
    }
  }
  if (skipped > 0) {
    std::cout << "warning: trace replay skipped " << skipped
              << " row(s) (malformed, unmappable endpoint, or self-pay)\n";
  }
}

routing::ScenarioConfig scenario_from(const Args& args) {
  routing::ScenarioConfig config;
  config.seed = args.u64("seed", 42);
  config.topology.nodes = args.u64("nodes", 100);
  config.topology.fund_scale = args.real("fund-scale", 1.0);
  config.topology.scale_free = args.flag("scale-free");
  config.placement.candidate_count =
      args.u64("candidates", config.topology.nodes >= 1000 ? 30 : 10);
  config.placement.prefer_exact = config.topology.nodes < 1000;
  config.placement.omega = args.real("omega", 0.1);
  config.workload.payment_count = args.u64("payments", 1500);
  config.workload.horizon_seconds = args.real("horizon", 25.0);
  config.workload.value_scale = args.real("value-scale", 1.0);
  config.workload.kind = pcn::workload_kind_from(args.str("workload", "synthetic"));
  config.workload.trace_file = args.str("trace-file", "");
  config.workload.streaming = args.flag("streaming");
  config.workload.burst_period_s = args.real("burst-period", 10.0);
  config.workload.burst_amplitude = args.real("burst-amplitude", 0.8);
  config.workload.hotspot_shift_interval_s = args.real("shift-interval", 8.0);
  config.workload.validate();
  return config;
}

int cmd_compare(const Args& args) {
  const auto config = scenario_from(args);
  const std::size_t threads = args.u64("threads", 0);
  const std::size_t trials = std::max<std::uint64_t>(1, args.u64("trials", 1));

  std::cout << "preparing scenario: " << config.topology.nodes << " nodes, ";
  if (config.workload.kind == pcn::WorkloadKind::kTrace) {
    std::cout << "trace " << config.workload.trace_file;
  } else {
    std::cout << config.workload.payment_count << " payments";
  }
  std::cout << ", workload " << pcn::to_string(config.workload.kind)
            << (config.workload.streaming ? " (streaming)" : "") << ", seed "
            << config.seed;
  if (trials > 1) std::cout << ", " << trials << " trials";
  std::cout << "\n";

  routing::SchemeConfig scheme_config;
  scheme_config.protocol.tau_s = args.real("tau", 200.0) / 1000.0;
  scheme_config.engine.settlement_epoch_s =
      args.real("settlement-epoch", 0.0) / 1000.0;
  // Hostile-world scenario pack: Poisson fault/churn/policy mutation
  // streams. All default off, in which case the run is byte-identical to
  // a benign one (no mutators are built at all).
  auto& hostile = scheme_config.engine.hostile;
  hostile.fault_rate = args.real("fault-rate", 0.0);
  hostile.churn_rate = args.real("churn-rate", 0.0);
  hostile.fee_policy_rate = args.real("fee-policy", 0.0);
  hostile.timelock_budget = static_cast<std::uint32_t>(args.u64(
      "timelock-budget", pcn::HostileConfig::kUnboundedTimelock));
  hostile.validate();
  if (hostile.any_mutation_active() ||
      hostile.timelock_budget != pcn::HostileConfig::kUnboundedTimelock) {
    std::cout << "hostile: fault-rate " << hostile.fault_rate
              << "/s, churn-rate " << hostile.churn_rate << "/s, fee-policy "
              << hostile.fee_policy_rate << "/s, timelock-budget ";
    if (hostile.timelock_budget == pcn::HostileConfig::kUnboundedTimelock) {
      std::cout << "unbounded";
    } else {
      std::cout << hostile.timelock_budget;
    }
    std::cout << "\n";
  }
  std::vector<routing::SchemeTask> tasks;
  for (const auto scheme :
       {routing::Scheme::kSplicer, routing::Scheme::kSpider,
        routing::Scheme::kFlash, routing::Scheme::kLandmark,
        routing::Scheme::kA2l, routing::Scheme::kShortestPath}) {
    tasks.push_back({scheme, scheme_config, {}});
  }

  routing::ParallelRunner runner({threads, trials});
  std::vector<routing::TaskResult> results;
  if (trials == 1) {
    // Prepare once, report the placement, and share the scenario across
    // every scheme task. (With trials > 1 each trial places its own
    // derived-seed scenario, so there is no single hub count to report and
    // the runner prepares them all itself.)
    std::vector<routing::Scenario> prepared;
    prepared.push_back(routing::prepare_scenario(config));
    std::cout << "placed " << prepared.front().multi_star.hubs.size()
              << " smooth nodes; " << prepared.front().clients.size()
              << " clients\n";
    warn_trace_skips(prepared.front());
    std::cout << "\n";
    results = runner.run_prepared(prepared, tasks).front();
  } else {
    if (config.workload.kind == pcn::WorkloadKind::kTrace) {
      // Derived-seed trials re-place their own topologies but replay the
      // same trace file; probe the base-seed scenario once so dropped rows
      // still warn. This pays one extra prepare_scenario (the exact skip
      // count needs the scenario's real client set for strict-mode range
      // checks) — 1/K of the preparation work the runner does anyway.
      warn_trace_skips(routing::prepare_scenario(config));
    }
    std::cout << "\n";
    results = runner.run({config}, tasks).front();
  }

  if (trials == 1) {
    common::Table table({"scheme", "TSR", "throughput", "avg delay (ms)",
                         "TUs sent", "TUs marked", "messages", "peak buf",
                         "resident", "evicted"});
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const auto& m = results[t].first();
      const auto row = table.add_row();
      table.set(row, 0, tasks[t].name());
      table.set(row, 1, common::format_percent(m.tsr()));
      table.set(row, 2, common::format_percent(m.normalized_throughput()));
      table.set(row, 3, m.average_delay_s() * 1000.0, 1);
      table.set(row, 4, static_cast<std::int64_t>(m.tus_sent));
      table.set(row, 5, static_cast<std::int64_t>(m.tus_marked));
      table.set(row, 6, static_cast<std::int64_t>(m.messages.total()));
      table.set(row, 7, static_cast<std::int64_t>(m.peak_payment_buffer));
      table.set(row, 8, static_cast<std::int64_t>(m.peak_resident_states));
      table.set(row, 9, static_cast<std::int64_t>(m.states_evicted));
    }
    std::cout << table.render();
    return 0;
  }

  // Mean +/- the 95% confidence half-width over the derived-seed trials.
  const auto pm = [](const common::RunningStats& s, int precision) {
    return common::format_double(s.mean(), precision) + " +/- " +
           common::format_double(common::ci95_half_width(s), precision);
  };
  common::Table table({"scheme", "TSR (%)", "throughput (%)",
                       "avg delay (ms)", "messages"});
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const auto& cell = results[t];
    const auto row = table.add_row();
    table.set(row, 0, tasks[t].name());
    common::RunningStats tsr_pct, thr_pct, delay_ms;
    for (const auto& m : cell.trials) {
      tsr_pct.add(m.tsr() * 100.0);
      thr_pct.add(m.normalized_throughput() * 100.0);
      delay_ms.add(m.average_delay_s() * 1000.0);
    }
    table.set(row, 1, pm(tsr_pct, 1));
    table.set(row, 2, pm(thr_pct, 1));
    table.set(row, 3, pm(delay_ms, 1));
    table.set(row, 4, pm(cell.messages, 0));
  }
  std::cout << table.render();
  return 0;
}

int cmd_place(const Args& args) {
  common::Rng rng(args.u64("seed", 42));
  const std::size_t nodes = args.u64("nodes", 100);
  const auto g = args.flag("scale-free")
                     ? graph::preferential_attachment(nodes, 4, rng)
                     : graph::watts_strogatz(nodes, 8, 0.15, rng);
  const auto instance = placement::build_instance_by_degree(
      g, args.u64("candidates", 10), args.real("omega", 0.1));

  const std::string solver = args.str("solver", "approx");
  placement::PlacementPlan plan;
  if (solver == "exhaustive") {
    plan = placement::solve_exhaustive(instance).plan;
  } else if (solver == "milp") {
    const auto result = placement::solve_milp(instance);
    std::cout << "MILP: " << result.variables << " vars, " << result.constraints
              << " constraints, " << result.stats.nodes_explored
              << " B&B nodes, status " << lp::to_string(result.status) << "\n";
    plan = result.plan;
  } else if (solver == "descent") {
    plan = placement::solve_greedy_descent(instance).plan;
  } else {
    plan = placement::solve_approx(instance).plan;
  }

  const auto costs = placement::balance_cost(instance, plan);
  std::cout << "solver: " << solver << "\nhubs (" << plan.hub_count() << "):";
  for (std::size_t n = 0; n < instance.candidate_count(); ++n) {
    if (plan.placed[n]) std::cout << " " << instance.candidates[n];
  }
  std::cout << "\nC_B = " << costs.balance << "  (C_M = " << costs.management
            << ", C_S = " << costs.synchronization << ", omega = "
            << instance.omega << ")\n";
  // Per-hub client counts.
  std::map<std::size_t, std::size_t> load;
  for (const auto a : plan.assignment) ++load[a];
  for (const auto& [hub, clients] : load) {
    std::cout << "  hub " << instance.candidates[hub] << " manages " << clients
              << " clients\n";
  }
  return 0;
}

int cmd_workflow(const Args& args) {
  common::Rng rng(args.u64("seed", 42));
  crypto::KeyManagementGroup kmg(args.u64("kmg", 5), rng.fork());
  core::PaymentWorkflow workflow(kmg, rng);
  const double value = args.real("value", 13.25);
  if (!(std::isfinite(value) && value > 0.0)) {
    throw std::invalid_argument("value must be finite and > 0");
  }
  core::PaymentDemand demand{1, 2, common::tokens(value)};
  const auto result = workflow.execute(demand);
  for (const auto& line : result.trace) std::cout << line << "\n";
  std::cout << "TUs: " << result.tu_count << ", messages: " << result.messages
            << ", result: " << (result.success ? "SUCCESS" : "FAILURE") << "\n";
  return result.success ? 0 : 1;
}

int cmd_topology(const Args& args) {
  common::Rng rng(args.u64("seed", 42));
  const std::size_t nodes = args.u64("nodes", 100);
  const auto g = args.flag("scale-free")
                     ? graph::preferential_attachment(nodes, 4, rng)
                     : graph::watts_strogatz(nodes, 8, 0.15, rng);
  const auto stats = graph::degree_stats(g);
  std::cout << "nodes: " << g.node_count() << "\nchannels: " << g.edge_count()
            << "\ndegree: mean " << stats.mean << ", min " << stats.min
            << ", max " << stats.max
            << "\nconnected: " << (graph::is_connected(g) ? "yes" : "no")
            << "\nclustering: " << graph::average_clustering(g);
  if (nodes <= 2000) {
    std::cout << "\nmean hops: " << graph::HopMatrix(g).mean_hops();
  }
  std::cout << "\n";
  return 0;
}

constexpr Option kCompareOptions[] = {
    {"seed", Value::kCount},           {"nodes", Value::kCount},
    {"payments", Value::kCount},       {"candidates", Value::kCount},
    {"omega", Value::kReal},           {"horizon", Value::kReal},
    {"fund-scale", Value::kReal},      {"value-scale", Value::kReal},
    {"scale-free", Value::kFlag},      {"tau", Value::kReal},
    {"threads", Value::kCount},        {"trials", Value::kCount},
    {"settlement-epoch", Value::kReal}, {"workload", Value::kText},
    {"trace-file", Value::kText},      {"streaming", Value::kFlag},
    {"burst-period", Value::kReal},    {"burst-amplitude", Value::kReal},
    {"shift-interval", Value::kReal},  {"fault-rate", Value::kReal},
    {"churn-rate", Value::kReal},      {"fee-policy", Value::kReal},
    {"timelock-budget", Value::kCount},
};
constexpr Option kPlaceOptions[] = {
    {"seed", Value::kCount},  {"nodes", Value::kCount},
    {"scale-free", Value::kFlag}, {"candidates", Value::kCount},
    {"omega", Value::kReal},  {"solver", Value::kText},
};
constexpr Option kWorkflowOptions[] = {
    {"seed", Value::kCount}, {"kmg", Value::kCount}, {"value", Value::kReal}};
constexpr Option kTopologyOptions[] = {
    {"seed", Value::kCount}, {"nodes", Value::kCount},
    {"scale-free", Value::kFlag}};

struct Command {
  const char* name;
  const char* summary;
  int (*run)(const Args&);
  std::span<const Option> options;
};

constexpr Command kCommands[] = {
    {"compare", "run all routing schemes on one scenario", cmd_compare,
     kCompareOptions},
    {"place", "solve a hub-placement instance", cmd_place, kPlaceOptions},
    {"workflow", "trace one encrypted payment (Fig. 3)", cmd_workflow,
     kWorkflowOptions},
    {"topology", "PCN topology statistics", cmd_topology, kTopologyOptions},
};

void usage(std::ostream& out) {
  out << "usage: splicer_cli <compare|place|workflow|topology> [--key value ...]\n";
  for (const Command& command : kCommands) {
    out << "  " << command.name
        << std::string(10 - std::string(command.name).size(), ' ')
        << command.summary << "\n";
    std::string line = "           ";
    for (const Option& option : command.options) {
      std::string item = std::string(" --") + option.key;
      if (option.value == Value::kCount) item += " N";
      if (option.value == Value::kReal) item += " X";
      if (option.value == Value::kText) item += " NAME";
      if (line.size() + item.size() > 78) {
        out << line << "\n";
        line = "           ";
      }
      line += item;
    }
    out << line << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(std::cout);
    return 2;
  }
  const std::string name = argv[1];
  const auto command =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&](const Command& c) { return name == c.name; });
  if (command == std::end(kCommands)) {
    usage(std::cout);
    return 2;
  }
  try {
    const Args args(argc, argv, command->options);
    return command->run(args);
  } catch (const UsageError& error) {
    std::cerr << "splicer_cli " << name << ": " << error.what() << "\n";
    usage(std::cerr);
    return 2;
  } catch (const std::invalid_argument& error) {
    // Config validation (workload, hostile knobs, engine, router ticks).
    std::cerr << "splicer_cli " << name << ": " << error.what() << "\n";
    return 2;
  }
}
