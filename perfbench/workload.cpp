#include "workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/amount.h"
#include "graph/disjoint_paths.h"
#include "graph/generators.h"
#include "graph/max_flow.h"
#include "graph/shortest_path.h"
#include "pcn/traffic_source.h"
#include "placement/approx_solver.h"
#include "placement/cost_model.h"
#include "placement/exhaustive_solver.h"
#include "placement/milp_solver.h"
#include "placement/topology_transform.h"
#include "routing/a2l_router.h"
#include "routing/flash_router.h"
#include "routing/landmark_router.h"
#include "routing/parallel_experiment.h"
#include "routing/shortest_path_router.h"
#include "routing/spider_router.h"
#include "routing/splicer_router.h"

namespace perfbench {

using splicer::routing::Scheme;
namespace graph = splicer::graph;
namespace pcn = splicer::pcn;
namespace placement = splicer::placement;
namespace routing = splicer::routing;

namespace {

// The paper's Fig. 7 scenario, exactly as bench_engine_hotpath and
// bench_fig7_small_scale configure it.
routing::ScenarioConfig fig7_scenario() {
  routing::ScenarioConfig config;
  config.topology.nodes = 100;
  config.placement.candidate_count = 10;
  config.placement.omega = 0.1;
  config.workload.payment_count = 1500;
  config.workload.horizon_seconds = 25.0;
  return config;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> list;

  Workload fig7;
  fig7.name = "fig7_trials";
  fig7.why = "paper Fig. 7 regime (100 nodes, 1500 payments, all six schemes); "
             "engine- and scheduler-bound";
  fig7.scenario = fig7_scenario();
  fig7.trials = 8;
  // Per-pass MILP cross-check on small instances (a few ms each).
  fig7.exact.instances = 4;
  list.push_back(fig7);

  Workload fig8;
  fig8.name = "fig8_large";
  fig8.why = "paper Fig. 8 regime (3000 nodes, double-greedy hubs); Spider's "
             "timer hooks and Flash's max-flow dominate, 30x the graph working set";
  fig8.scenario.topology.nodes = 3000;
  fig8.scenario.placement.candidate_count = 30;
  fig8.scenario.placement.prefer_exact = false;
  fig8.scenario.placement.omega = 0.1;
  fig8.scenario.workload.payment_count = 3000;
  fig8.scenario.workload.horizon_seconds = 18.0;
  fig8.trials = 1;
  // One 3000-node topology leaves Splicer's mean delay spread ~0.2-0.27
  // (interquartile share of the median) across seeds; a Splicer run costs
  // ~5% of the pass, so seven more topologies are cheap.
  fig8.splicer_only_trials = 7;
  fig8.exact = fig7.exact;
  list.push_back(fig8);

  Workload churn = fig7;
  churn.name = "hostile_churn";
  churn.why = "Fig. 7 with node faults, channel churn and fee rewrites at 1/s "
              "each; topology writes interleave with path reads";
  churn.schemes.engine.hostile.fault_rate = 1.0;
  churn.schemes.engine.hostile.churn_rate = 1.0;
  churn.schemes.engine.hostile.fee_policy_rate = 1.0;
  list.push_back(churn);

  Workload exact;
  exact.name = "placement_exact";
  exact.why = "paper SS IV-C: MILP vs exhaustive vs double greedy over an omega "
              "sweep; lp, placement and submodular do the work";
  // Many small instances, so that their summed branch-and-bound node count
  // varies little between seeds (308-372 over seeds 1-8), and few enough
  // that a pass stays short (~2.5 s) and a run's median is taken over
  // several passes. The routing phase runs the six schemes over the
  // exhaustive 14-candidate hubs, four trials.
  exact.exact.instances = 32;
  exact.exact.candidates = 4;
  exact.scenario = fig7_scenario();
  exact.scenario.placement.candidate_count = 14;
  exact.trials = 4;
  exact.scenario_sweep = true;
  list.push_back(exact);
  return list;
}

/// 64-bit FNV-1a over the simulated outputs.
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void add_metrics(Digest& digest, const routing::EngineMetrics& m) {
  digest.add(static_cast<std::uint64_t>(m.payments_generated));
  digest.add(static_cast<std::uint64_t>(m.payments_completed));
  digest.add(static_cast<std::uint64_t>(m.payments_failed));
  digest.add(static_cast<std::uint64_t>(m.value_generated));
  digest.add(static_cast<std::uint64_t>(m.value_completed));
  digest.add(m.tus_sent);
  digest.add(m.tus_delivered);
  digest.add(m.tus_failed);
  digest.add(m.tus_marked);
  digest.add(m.messages.total());
  digest.add(m.scheduler_events);
  digest.add(m.mutation_events);
  digest.add(m.completion_delay_stats.sum());
}

/// Scenario seed of trial `k`, as the ParallelRunner derives it (trial 0
/// keeps the workload seed).
std::uint64_t trial_seed(std::uint64_t seed, std::size_t k) {
  return k == 0 ? seed : routing::derive_seed(seed, 0, 0, k);
}

/// Engine config of one (trial, scheme) run, as the ParallelRunner derives
/// it. The mutation schedule is re-seeded per trial; it only matters when a
/// hostile rate is set.
routing::SchemeConfig run_config(const Workload& workload, std::uint64_t seed,
                                 std::size_t k, Scheme scheme) {
  routing::SchemeConfig config = workload.schemes;
  if (k > 0) {
    config.engine.seed =
        routing::derive_seed(seed, 0, static_cast<std::uint64_t>(scheme) + 1, k);
  }
  config.engine.hostile.seed = routing::derive_seed(seed, 2, 0, k);
  return config;
}

/// run_scheme() with the router behind TracingRouter: the same router
/// configs and substrates, so outputs must match the untraced pass.
routing::EngineMetrics run_scheme_traced(const routing::Scenario& scenario,
                                         Scheme scheme, routing::SchemeConfig config,
                                         SpanLog& log, RouterTrace& trace) {
  const auto run = [&](routing::Router& router, const pcn::Network& network,
                       bool queues) {
    config.engine.queues_enabled = queues;
    TracingRouter traced(router, log, trace);
    routing::Engine engine(network, scenario.make_source(), traced, config.engine);
    return engine.run();
  };
  switch (scheme) {
    case Scheme::kSplicer: {
      routing::SplicerRouter::Config rc;
      rc.protocol = config.protocol;
      routing::SplicerRouter router(scenario.multi_star.hub_of,
                                    scenario.multi_star.hubs, rc);
      return run(router, scenario.multi_star.network, true);
    }
    case Scheme::kSpider: {
      routing::SpiderRouter::Config rc;
      rc.protocol = config.protocol;
      rc.protocol.path_type = graph::PathType::kEdgeDisjointShortest;
      routing::SpiderRouter router(rc);
      return run(router, scenario.raw, true);
    }
    case Scheme::kFlash: {
      routing::FlashRouter router;
      return run(router, scenario.raw, false);
    }
    case Scheme::kLandmark: {
      routing::LandmarkRouter router;
      return run(router, scenario.raw, false);
    }
    case Scheme::kA2l: {
      routing::A2lRouter::Config rc;
      rc.hub = scenario.single_star.hubs.front();
      rc.epoch_s = config.protocol.tau_s;
      routing::A2lRouter router(rc);
      return run(router, scenario.single_star.network, false);
    }
    case Scheme::kShortestPath: {
      routing::ShortestPathRouter router;
      return run(router, scenario.raw, false);
    }
  }
  throw std::invalid_argument("run_scheme_traced: unknown scheme");
}

struct SolveItem {
  placement::PlacementInstance instance;
  bool milp = false;
};

struct SolveOutcome {
  double optimal = 0.0;  // C_B of the exhaustive optimum
  double milp = 0.0;
  double approx = 0.0;
  std::size_t optimal_hubs = 0;
  std::size_t approx_hubs = 0;
  std::size_t bb_nodes = 0;
  std::size_t bb_pruned = 0;
  std::size_t subsets = 0;
  std::size_t oracle_calls = 0;
  double milp_s = 0.0;
  double exhaustive_s = 0.0;
  double approx_s = 0.0;
};

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Runs `body` inside a span (traced) and adds its wall seconds to `acc`.
template <class Body>
auto timed(SpanLog* log, std::uint16_t label, double& acc, Body&& body) {
  const std::int64_t start = wall_ns();
  std::optional<ScopedSpan> span;
  if (log != nullptr) span.emplace(*log, label);
  auto result = body();
  span.reset();
  acc += seconds(wall_ns() - start);
  return result;
}

/// The MILP / exhaustive / double-greedy triple on one instance; throws on
/// a MILP that is not optimal or disagrees with the exhaustive optimum.
SolveOutcome solve(const SolveItem& item, SpanLog* log, std::uint16_t milp_label,
                   std::uint16_t exhaustive_label, std::uint16_t approx_label) {
  SolveOutcome out;
  const auto exhaustive = timed(log, exhaustive_label, out.exhaustive_s, [&] {
    return placement::solve_exhaustive(item.instance);
  });
  out.optimal = exhaustive.costs.balance;
  out.optimal_hubs = exhaustive.plan.hub_count();
  out.subsets = exhaustive.subsets_evaluated;

  const auto approx = timed(log, approx_label, out.approx_s, [&] {
    return placement::solve_approx(item.instance);
  });
  out.approx = approx.costs.balance;
  out.approx_hubs = approx.plan.hub_count();
  out.oracle_calls = approx.oracle_calls;
  const double tolerance = 1e-6 * std::max(1.0, std::abs(out.optimal));
  if (out.approx < out.optimal - tolerance) {
    throw std::runtime_error("double greedy beat the exhaustive optimum");
  }

  if (item.milp) {
    const auto milp = timed(log, milp_label, out.milp_s, [&] {
      return placement::solve_milp(item.instance);
    });
    out.milp = milp.costs.balance;
    out.bb_nodes = milp.stats.nodes_explored;
    out.bb_pruned = milp.stats.nodes_pruned_bound;
    if (milp.status != splicer::lp::SolveStatus::kOptimal) {
      throw std::runtime_error("MILP did not reach optimality");
    }
    if (std::abs(out.milp - out.optimal) > tolerance) {
      throw std::runtime_error("MILP optimum " + std::to_string(out.milp) +
                               " != exhaustive optimum " +
                               std::to_string(out.optimal));
    }
  }
  return out;
}

/// The paper's deadlock-freedom and conservation invariants on one run.
void check_run(const routing::EngineMetrics& m) {
  if (m.resident_tus_at_end != 0 || m.wedged_queue_value != 0) {
    throw std::runtime_error("wedged liquidity: resident_tus=" +
                             std::to_string(m.resident_tus_at_end) +
                             " wedged_value=" + std::to_string(m.wedged_queue_value));
  }
  if (m.payments_completed + m.payments_failed != m.payments_generated) {
    throw std::runtime_error("unresolved payments at end of run");
  }
}

/// Seed-42 trial 0 of fig7_trials is bench_engine_hotpath's Fig. 7 run:
/// per scheme (all six, reporting order) the completed payments out of
/// 1500 and the scheduler events it records.
void check_anchor(const std::vector<routing::EngineMetrics>& trial0) {
  struct Anchor {
    std::size_t completed;
    std::uint64_t events;
  };
  static constexpr Anchor kAnchors[] = {{1107, 157019}, {679, 145152}, {727, 19715},
                                        {571, 93498},   {648, 7616},   {685, 9730}};
  for (std::size_t s = 0; s < std::size(kAnchors); ++s) {
    const auto& m = trial0[s];
    if (m.payments_generated != 1500 || m.payments_completed != kAnchors[s].completed ||
        m.scheduler_events != kAnchors[s].events) {
      throw std::runtime_error(
          std::string("anchor mismatch for ") + routing::to_string(all_schemes()[s]) +
          ": completed " + std::to_string(m.payments_completed) + "/" +
          std::to_string(m.payments_generated) + ", events " +
          std::to_string(m.scheduler_events));
    }
  }
}

/// Graph kernels on the scenario's raw topology for a fixed sample of its
/// own sender->receiver pairs (Flash's max-flow options).
void probe_graph(const routing::Scenario& scenario, SpanLog& log, LayerSample& out) {
  constexpr std::size_t kPairs = 512;
  const auto& g = scenario.raw.topology();
  const auto forward = scenario.raw.forward_balances_tokens();
  const auto backward = scenario.raw.backward_balances_tokens();
  const routing::FlashRouter::Config flash;
  const routing::RateProtocolConfig rate;  // Spider's and Splicer's k paths
  const std::size_t n = scenario.payments.size();
  const std::size_t count = std::min(kPairs, n);
  const std::uint16_t dijkstra_label = log.label("graph.dijkstra");
  const std::uint16_t select_label = log.label("graph.select_paths");
  const std::uint16_t flow_label = log.label("graph.max_flow");
  auto& dijkstra_us = out.samples["graph.dijkstra_us"];
  auto& select_us = out.samples["graph.select_paths_us"];
  auto& flow_us = out.samples["graph.max_flow_us"];
  std::size_t sink = 0;  // keeps results observable
  for (std::size_t i = 0; i < count; ++i) {
    const pcn::Payment& p = scenario.payments[i * n / count];
    SpanLog::Closed closed;
    {
      const ScopedSpan span(log, dijkstra_label, &closed);
      sink += graph::dijkstra(g, p.sender).parent.size();
    }
    dijkstra_us.push_back(static_cast<double>(closed.duration_ns) * 1e-3);
    {
      const ScopedSpan span(log, select_label, &closed);
      sink += graph::select_paths(g, p.sender, p.receiver, rate.k_paths,
                                  graph::PathType::kEdgeDisjointShortest)
                  .size();
    }
    select_us.push_back(static_cast<double>(closed.duration_ns) * 1e-3);
    {
      graph::MaxFlowOptions options;
      options.forward_capacity = &forward;
      options.backward_capacity = &backward;
      options.flow_limit = splicer::common::to_tokens(p.value);
      options.max_paths = flash.max_flow_paths;
      const ScopedSpan span(log, flow_label, &closed);
      sink += graph::max_flow(g, p.sender, p.receiver, options).paths.size();
    }
    flow_us.push_back(static_cast<double>(closed.duration_ns) * 1e-3);
  }
  if (sink == 0) throw std::runtime_error("graph probes found nothing");
}

/// prepare_scenario's public calls one by one, timed per layer; the result
/// must be the scenario prepare_scenario built.
void probe_pipeline(const routing::ScenarioConfig& config,
                    const routing::Scenario& expected, SpanLog& log,
                    LayerSample& out) {
  const auto step = [&](const char* name, auto&& body) {
    SpanLog::Closed closed;
    auto result = [&] {
      const ScopedSpan span(log, log.label(name), &closed);
      return body();
    }();
    out.values[name] += seconds(closed.duration_ns);
    return result;
  };
  splicer::common::Rng rng(config.seed);
  pcn::Network raw = step("pcn.topology_s", [&] {
    auto g = graph::watts_strogatz(config.topology.nodes, config.topology.ws_degree,
                                   config.topology.ws_beta, rng);
    return pcn::Network::with_sampled_funds(std::move(g), config.topology.fund_scale,
                                            rng);
  });
  const auto instance = step("placement.instance_s", [&] {
    return placement::build_instance_by_degree(
        raw.topology(), config.placement.candidate_count, config.placement.omega);
  });
  const auto plan = step("placement.solve_s", [&] {
    return config.placement.prefer_exact && config.placement.candidate_count <= 14
               ? placement::solve_exhaustive(instance).plan
               : placement::solve_approx(instance).plan;
  });
  const auto transforms = step("placement.transform_s", [&] {
    return std::make_pair(placement::build_multi_star(raw, instance, plan),
                          placement::build_single_star(raw));
  });
  const auto payments = step("pcn.workload_s", [&] {
    std::vector<pcn::NodeId> clients;
    for (pcn::NodeId v = 0; v < raw.node_count(); ++v) {
      if (!transforms.first.is_hub[v] && v != transforms.second.hubs.front()) {
        clients.push_back(v);
      }
    }
    const auto source = pcn::make_traffic_source(clients, config.workload, rng);
    return pcn::drain(*source);
  });

  bool same = plan.placed == expected.plan.placed &&
              plan.assignment == expected.plan.assignment &&
              transforms.first.hubs == expected.multi_star.hubs &&
              payments.size() == expected.payments.size();
  for (std::size_t i = 0; same && i < payments.size(); ++i) {
    const auto& a = payments[i];
    const auto& b = expected.payments[i];
    same = a.id == b.id && a.sender == b.sender && a.receiver == b.receiver &&
           a.value == b.value && a.arrival_time == b.arrival_time;
  }
  if (!same) {
    throw std::runtime_error("step-by-step scenario pipeline differs from "
                             "prepare_scenario");
  }
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = make_workloads();
  return list;
}

const std::vector<Scheme>& all_schemes() {
  static const std::vector<Scheme> list{Scheme::kSplicer,  Scheme::kSpider,
                                        Scheme::kFlash,    Scheme::kLandmark,
                                        Scheme::kA2l,      Scheme::kShortestPath};
  return list;
}

std::string scheme_key(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSplicer: return "splicer";
    case Scheme::kSpider: return "spider";
    case Scheme::kFlash: return "flash";
    case Scheme::kLandmark: return "landmark";
    case Scheme::kA2l: return "a2l";
    case Scheme::kShortestPath: return "shortest_path";
  }
  return "unknown";
}

PassResult run_pass(const Workload& workload, std::uint64_t seed, SpanLog* log) {
  PassResult result;
  const auto& schemes = all_schemes();
  const std::size_t trials = workload.trials;
  const std::size_t scenario_count = trials + workload.splicer_only_trials;

  // ---- setup: scenarios and placement instances ---------------------------
  std::vector<routing::ScenarioConfig> configs(scenario_count, workload.scenario);
  for (std::size_t k = 0; k < scenario_count; ++k) configs[k].seed = trial_seed(seed, k);
  std::vector<routing::Scenario> scenarios;
  scenarios.reserve(scenario_count);
  std::vector<SolveItem> items;
  const std::int64_t setup_start = wall_ns();
  for (const auto& config : configs) scenarios.push_back(routing::prepare_scenario(config));
  const ExactSolves& exact = workload.exact;
  for (std::size_t i = 0; i < exact.instances; ++i) {
    splicer::common::Rng rng(routing::derive_seed(seed, 1, 0, i));
    const auto g = graph::watts_strogatz(12, 4, 0.2, rng);
    for (const double omega : kSolveOmegas) {
      items.push_back({placement::build_instance_by_degree(g, exact.candidates, omega), true});
    }
  }
  for (std::size_t i = 0; workload.scenario_sweep && i < kSolveOmegas.size(); ++i) {
    items.push_back({placement::build_instance_by_degree(
                         scenarios.front().raw.topology(),
                         workload.scenario.placement.candidate_count, kSolveOmegas[i]),
                     false});
  }
  result.setup_s = seconds(wall_ns() - setup_start);

  // ---- timed work: placement solves, then every scheme on every trial -----
  std::uint16_t milp_label = 0, exhaustive_label = 0, approx_label = 0;
  std::vector<std::uint16_t> run_labels;
  if (log != nullptr) {
    milp_label = log->label("placement.milp");
    exhaustive_label = log->label("placement.exhaustive");
    approx_label = log->label("placement.approx");
    for (const Scheme s : schemes) run_labels.push_back(log->label("routing.run." + scheme_key(s)));
  }
  std::vector<SolveOutcome> solves(items.size());
  std::vector<char> solve_ok(items.size(), 0);
  struct RunSpec {
    std::size_t trial;
    std::size_t scheme;  // index into schemes
  };
  std::vector<RunSpec> specs;
  for (std::size_t k = 0; k < scenario_count; ++k) {
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      if (k < trials || schemes[s] == Scheme::kSplicer) specs.push_back({k, s});
    }
  }
  std::vector<routing::EngineMetrics> runs(specs.size());
  std::vector<char> run_ok(runs.size(), 0);
  std::vector<RouterTrace> traces(log != nullptr ? runs.size() : 0);
  std::vector<SpanLog::Closed> run_spans(traces.size());
  std::uint32_t request = 0;

  const double cpu_start = thread_cpu_s();
  const std::int64_t wall_start = wall_ns();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (log != nullptr) log->set_request(request++);
    try {
      solves[i] = solve(items[i], log, milp_label, exhaustive_label, approx_label);
      solve_ok[i] = 1;
    } catch (const std::exception& e) {
      result.failures.push_back("placement solve " + std::to_string(i) + ": " + e.what());
    }
  }
  const std::int64_t routing_start = wall_ns();
  for (std::size_t index = 0; index < specs.size(); ++index) {
    const auto [k, s] = specs[index];
    const auto config = run_config(workload, seed, k, schemes[s]);
    try {
      if (log == nullptr) {
        runs[index] = routing::run_scheme(scenarios[k], schemes[s], config);
      } else {
        log->set_request(request++);
        const ScopedSpan span(*log, run_labels[s], &run_spans[index]);
        runs[index] = run_scheme_traced(scenarios[k], schemes[s], config, *log,
                                        traces[index]);
      }
      check_run(runs[index]);
      run_ok[index] = 1;
    } catch (const std::exception& e) {
      result.failures.push_back(std::string(routing::to_string(schemes[s])) +
                                " trial " + std::to_string(k) + ": " + e.what());
    }
  }
  const std::int64_t wall_end = wall_ns();
  result.wall_s = seconds(wall_end - wall_start);
  result.routing_s = seconds(wall_end - routing_start);
  result.cpu_s = thread_cpu_s() - cpu_start;
  result.operations = items.size() + runs.size();

  // ---- simulated outcomes and digest --------------------------------------
  Digest digest;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& o = solves[i];
    digest.add(o.optimal);
    digest.add(o.milp);
    digest.add(o.approx);
    digest.add(static_cast<std::uint64_t>(o.optimal_hubs * 1000 + o.approx_hubs));
    digest.add(static_cast<std::uint64_t>(o.bb_nodes));
    digest.add(static_cast<std::uint64_t>(o.oracle_calls));
    if (solve_ok[i]) {
      result.approx_ratio += o.approx / o.optimal / static_cast<double>(items.size());
    }
  }
  std::vector<double> throughput(schemes.size(), 0.0);  // over the full trials
  double tsr_sum = 0.0;
  const auto splicer_runs = static_cast<double>(scenario_count);
  for (std::size_t index = 0; index < runs.size(); ++index) {
    const auto& m = runs[index];
    add_metrics(digest, m);
    result.payments += m.payments_completed + m.payments_failed;
    const auto [k, s] = specs[index];
    if (k < trials) {
      throughput[s] += m.normalized_throughput() / static_cast<double>(trials);
      tsr_sum += m.tsr();
    }
    if (schemes[s] == Scheme::kSplicer) {
      result.splicer_tsr += m.tsr() / splicer_runs;
      result.splicer_throughput += m.normalized_throughput() / splicer_runs;
      result.splicer_delay_s += m.average_delay_s() / splicer_runs;
    }
  }
  result.digest = digest.value();
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    if (schemes[s] != Scheme::kSplicer && schemes[s] != Scheme::kShortestPath) {
      result.best_baseline_throughput =
          std::max(result.best_baseline_throughput, throughput[s]);
    }
  }
  result.splicer_vs_best = throughput[0] / result.best_baseline_throughput;
  result.mean_tsr = tsr_sum / static_cast<double>(trials * schemes.size());
  if (workload.name == "fig7_trials" && seed == 42) {
    try {
      check_anchor({runs.begin(), runs.begin() + static_cast<std::ptrdiff_t>(schemes.size())});
    } catch (const std::exception& e) {
      result.failures.push_back(e.what());
    }
  }
  if (log == nullptr) return result;

  // ---- per-layer figures (traced passes only) -----------------------------
  auto& v = result.layers.values;
  for (std::size_t index = 0; index < runs.size(); ++index) {
    const auto& m = runs[index];
    const auto& t = traces[index];
    const Scheme scheme = schemes[specs[index].scheme];
    const std::string key = scheme_key(scheme);
    const auto hook_s = [&](Hook h) {
      return seconds(t.hooks[static_cast<std::size_t>(h)].self_ns);
    };
    v["sim.events." + key] += static_cast<double>(m.scheduler_events);
    v["sim.pending_max." + key] =
        std::max(v["sim.pending_max." + key], static_cast<double>(t.pending_max));
    v["routing.run_s." + key] += seconds(run_spans[index].duration_ns);
    v["routing.engine_self_s." + key] += seconds(run_spans[index].self_ns);
    v["routing.router.payment_s." + key] += hook_s(Hook::kPayment);
    v["routing.router.payment_calls." + key] +=
        static_cast<double>(t.hooks[static_cast<std::size_t>(Hook::kPayment)].calls);
    v["routing.router.timer_s." + key] += hook_s(Hook::kTimer);
    v["routing.router.timer_calls." + key] +=
        static_cast<double>(t.hooks[static_cast<std::size_t>(Hook::kTimer)].calls);
    v["routing.router.tu_hooks_s." + key] +=
        hook_s(Hook::kTuDelivered) + hook_s(Hook::kTuFailed) +
        hook_s(Hook::kTuForwarded) + hook_s(Hook::kPaymentTimeout);
    v["routing.router.other_s." + key] +=
        hook_s(Hook::kStart) + hook_s(Hook::kPaymentResolved);
    v["routing.tus_sent." + key] += static_cast<double>(m.tus_sent);
    v["routing.tus_delivered." + key] += static_cast<double>(m.tus_delivered);
    auto& payment_us = result.layers.samples["routing.router.payment_us." + key];
    payment_us.insert(payment_us.end(), t.payment_self_us.begin(),
                      t.payment_self_us.end());
    v["pcn.mutation_events"] += static_cast<double>(m.mutation_events);
    if (scheme == Scheme::kSplicer || scheme == Scheme::kSpider) {
      v["routing.rate.price_updates_skipped." + key] +=
          static_cast<double>(m.price_updates_skipped);
      v["routing.rate.probe_sums_reused." + key] +=
          static_cast<double>(m.probe_sums_reused);
      v["routing.rate.active_pairs_peak." + key] =
          std::max(v["routing.rate.active_pairs_peak." + key],
                   static_cast<double>(m.active_pairs_peak));
      v["sim.probe_messages." + key] += static_cast<double>(m.messages.probe_messages);
    }
  }
  for (const auto& o : solves) {
    v["placement.milp_s"] += o.milp_s;
    v["placement.exhaustive_s"] += o.exhaustive_s;
    v["placement.approx_s"] += o.approx_s;
    v["lp.bb_nodes"] += static_cast<double>(o.bb_nodes);
    v["lp.bb_pruned"] += static_cast<double>(o.bb_pruned);
    v["placement.exhaustive_subsets"] += static_cast<double>(o.subsets);
    v["submodular.oracle_calls"] += static_cast<double>(o.oracle_calls);
  }

  // Probes outside the timed interval: graph kernels and the scenario
  // pipeline of trial 0.
  log->set_request(request++);
  try {
    probe_graph(scenarios.front(), *log, result.layers);
    probe_pipeline(configs.front(), scenarios.front(), *log, result.layers);
  } catch (const std::exception& e) {
    result.failures.push_back(std::string("layer probe: ") + e.what());
  }
  return result;
}

}  // namespace perfbench
