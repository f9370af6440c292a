// Placement-solver ablation (DESIGN.md SS6): exhaustive optimum vs the
// paper's Alg. 1 double greedy (deterministic + randomised) vs plain
// greedy descent, across omegas, with oracle-call counts - the cost of
// optimality at a glance. The per-omega and per-candidate-count solves are
// independent, so both sweeps fan out with sim::parallel_for.
//
// Usage: bench_ablation_placement [--threads N]

#include <iostream>

#include "bench_util.h"
#include "graph/generators.h"
#include "placement/approx_solver.h"
#include "placement/cost_model.h"
#include "placement/exhaustive_solver.h"
#include "sim/parallel_for.h"

using namespace splicer;

int main(int argc, char** argv) {
  std::cout << "=== Ablation: placement solvers ===\n";
  const std::size_t threads = bench::thread_count(argc, argv);
  common::Rng rng(bench::base_seed());
  const auto g = graph::watts_strogatz(100, 8, 0.15, rng);

  struct OmegaPoint {
    placement::ExhaustiveResult exact;
    placement::ApproxResult det;
    placement::ApproxResult rand;
    placement::ApproxResult descent;
  };
  const std::vector<double> omegas{0.02, 0.1, 0.5};
  std::vector<OmegaPoint> points(omegas.size());
  sim::parallel_for(threads, omegas.size(), [&](std::size_t i) {
    const auto instance = placement::build_instance_by_degree(g, 14, omegas[i]);
    OmegaPoint& p = points[i];
    p.exact = placement::solve_exhaustive(instance);
    p.det = placement::solve_approx(instance);
    common::Rng greedy_rng(bench::base_seed() ^ 0x5eed);
    p.rand = placement::solve_approx_randomized(instance, greedy_rng);
    p.descent = placement::solve_greedy_descent(instance);
  });

  common::Table table({"omega", "solver", "C_B", "vs optimal", "#hubs",
                       "oracle calls"});
  for (std::size_t i = 0; i < omegas.size(); ++i) {
    const OmegaPoint& p = points[i];
    const auto add = [&](const std::string& name, double cost, std::size_t hubs,
                         std::size_t calls) {
      const auto row = table.add_row();
      table.set(row, 0, omegas[i], 2);
      table.set(row, 1, name);
      table.set(row, 2, cost, 3);
      table.set(row, 3, cost / p.exact.costs.balance, 3);
      table.set(row, 4, static_cast<std::int64_t>(hubs));
      table.set(row, 5, static_cast<std::int64_t>(calls));
    };
    add("exhaustive (optimal)", p.exact.costs.balance, p.exact.plan.hub_count(),
        p.exact.subsets_evaluated);
    add("double greedy (det.)", p.det.costs.balance, p.det.plan.hub_count(),
        p.det.oracle_calls);
    add("double greedy (rand.)", p.rand.costs.balance, p.rand.plan.hub_count(),
        p.rand.oracle_calls);
    add("greedy descent", p.descent.costs.balance, p.descent.plan.hub_count(),
        p.descent.oracle_calls);
  }
  bench::emit("placement solver ablation (100 nodes, 14 candidates)", table,
              "ablation_placement");

  // Scaling: double-greedy oracle calls are linear in the candidate count.
  common::Rng rng2(bench::base_seed() + 1);
  const auto g_large = graph::watts_strogatz(2000, 8, 0.15, rng2);
  const std::vector<std::size_t> candidate_counts{10, 20, 40, 80};
  std::vector<placement::ApproxResult> scaling_points(candidate_counts.size());
  sim::parallel_for(threads, candidate_counts.size(), [&](std::size_t i) {
    const auto instance =
        placement::build_instance_by_degree(g_large, candidate_counts[i], 0.1);
    scaling_points[i] = placement::solve_approx(instance);
  });

  common::Table scaling({"candidates", "oracle calls", "C_B", "#hubs"});
  for (std::size_t i = 0; i < candidate_counts.size(); ++i) {
    const auto& approx = scaling_points[i];
    const auto row = scaling.add_row();
    scaling.set(row, 0, static_cast<std::int64_t>(candidate_counts[i]));
    scaling.set(row, 1, static_cast<std::int64_t>(approx.oracle_calls));
    scaling.set(row, 2, approx.costs.balance, 3);
    scaling.set(row, 3, static_cast<std::int64_t>(approx.plan.hub_count()));
  }
  bench::emit("double-greedy scaling (2000-node graph)", scaling,
              "ablation_placement_scaling");
  return 0;
}
