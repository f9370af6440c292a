// Reproduces paper Fig. 9: smooth-node placement evaluation.
//   (a) balance cost vs omega: approximation (paper Alg. 1) vs optimal
//   (b) management/synchronisation cost tradeoff with (omega, #hubs) labels
//   (c) #smooth nodes vs omega, small scale
//   (d) #smooth nodes vs omega, large scale
//   (e) avg transaction delay vs total traffic overhead, small scale,
//       with PCHs (iterating omega) vs without PCHs (source routing)
//   (f) same at large scale
//
// The omega sweeps (independent placement solves) fan out with
// sim::parallel_for; the routing panels through the ParallelRunner.
//
// Usage: bench_fig9_placement [--threads N]   (0 = all hardware threads)

#include <iostream>
#include <optional>

#include "bench_util.h"
#include "graph/generators.h"
#include "placement/approx_solver.h"
#include "placement/cost_model.h"
#include "placement/exhaustive_solver.h"
#include "sim/parallel_for.h"

using namespace splicer;

namespace {

const std::vector<double> kOmegas{0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.0};

void panels_abc(const graph::Graph& g, std::size_t candidates,
                std::size_t threads) {
  struct OmegaPoint {
    placement::ExhaustiveResult exact;
    placement::ApproxResult approx;
  };
  std::vector<OmegaPoint> points(kOmegas.size());
  sim::parallel_for(threads, kOmegas.size(), [&](std::size_t i) {
    const auto instance =
        placement::build_instance_by_degree(g, candidates, kOmegas[i]);
    points[i] = {placement::solve_exhaustive(instance),
                 placement::solve_approx(instance)};
  });

  common::Table cost_table(
      {"omega", "optimal C_B", "approx C_B", "approx/optimal"});
  common::Table tradeoff_table(
      {"omega", "#hubs", "C_M (management)", "C_S (synchronisation)"});
  common::Table hubs_table({"omega", "#hubs optimal", "#hubs approx"});

  for (std::size_t i = 0; i < kOmegas.size(); ++i) {
    const double omega = kOmegas[i];
    const auto& exact = points[i].exact;
    const auto& approx = points[i].approx;

    auto row = cost_table.add_row();
    cost_table.set(row, 0, omega, 2);
    cost_table.set(row, 1, exact.costs.balance, 3);
    cost_table.set(row, 2, approx.costs.balance, 3);
    cost_table.set(row, 3, approx.costs.balance / exact.costs.balance, 3);

    row = tradeoff_table.add_row();
    tradeoff_table.set(row, 0, omega, 2);
    tradeoff_table.set(row, 1, static_cast<std::int64_t>(exact.plan.hub_count()));
    tradeoff_table.set(row, 2, exact.costs.management, 3);
    tradeoff_table.set(row, 3, exact.costs.synchronization, 3);

    row = hubs_table.add_row();
    hubs_table.set(row, 0, omega, 2);
    hubs_table.set(row, 1, static_cast<std::int64_t>(exact.plan.hub_count()));
    hubs_table.set(row, 2, static_cast<std::int64_t>(approx.plan.hub_count()));
  }
  bench::emit("fig9(a) balance cost vs omega: approximation vs optimal",
              cost_table, "fig9a_balance_cost");
  bench::emit("fig9(b) management/synchronisation tradeoff (optimal plans)",
              tradeoff_table, "fig9b_tradeoff");
  bench::emit("fig9(c) number of smooth nodes vs omega (small scale)",
              hubs_table, "fig9c_hub_count_small");
}

void panel_d(std::size_t threads) {
  common::Rng rng(bench::base_seed());
  const auto g = graph::watts_strogatz(3000, 8, 0.15, rng);
  std::vector<std::size_t> hub_counts(kOmegas.size());
  sim::parallel_for(threads, kOmegas.size(), [&](std::size_t i) {
    const auto instance = placement::build_instance_by_degree(g, 30, kOmegas[i]);
    hub_counts[i] = placement::solve_approx(instance).plan.hub_count();
  });

  common::Table table({"omega", "#hubs (double greedy)"});
  for (std::size_t i = 0; i < kOmegas.size(); ++i) {
    const auto row = table.add_row();
    table.set(row, 0, kOmegas[i], 2);
    table.set(row, 1, static_cast<std::int64_t>(hub_counts[i]));
  }
  bench::emit("fig9(d) number of smooth nodes vs omega (large scale, 3000 nodes)",
              table, "fig9d_hub_count_large");
}

void panels_ef(const char* label, routing::ScenarioConfig base,
               const std::string& csv, routing::ParallelRunner& runner) {
  const std::vector<double> omegas{0.01, 0.04, 0.16, 0.64};
  std::vector<routing::ScenarioConfig> configs;
  for (const double omega : omegas) {
    auto config = base;
    config.placement.omega = omega;
    configs.push_back(config);
  }
  configs.push_back(base);  // Spider baseline point

  // Prepare every evaluation point in parallel, keeping the scenarios so
  // the table can report the resulting hub counts.
  std::vector<std::optional<routing::Scenario>> slots(configs.size());
  const std::size_t threads = runner.config().threads;
  sim::parallel_for(threads, configs.size(), [&](std::size_t i) {
    slots[i] = routing::prepare_scenario(configs[i]);
  });
  std::vector<routing::Scenario> with_pchs;
  for (std::size_t i = 0; i < omegas.size(); ++i) {
    with_pchs.push_back(std::move(*slots[i]));
  }
  std::vector<routing::Scenario> baseline;
  baseline.push_back(std::move(*slots.back()));

  const auto splicer_results =
      runner.run_prepared(with_pchs, {{routing::Scheme::kSplicer, {}, {}}});
  // Without smooth nodes: source routing (Spider) fixed point.
  const auto spider_results =
      runner.run_prepared(baseline, {{routing::Scheme::kSpider, {}, {}}});

  common::Table table(
      {"configuration", "avg delay (ms)", "total overhead (messages)", "TSR"});
  for (std::size_t i = 0; i < omegas.size(); ++i) {
    const auto& m = splicer_results[i].front().first();
    const auto row = table.add_row();
    table.set(row, 0,
              "with PCHs, omega=" + common::format_double(omegas[i], 2) + " (" +
                  std::to_string(with_pchs[i].multi_star.hubs.size()) + " hubs)");
    table.set(row, 1, m.average_delay_s() * 1000.0, 1);
    table.set(row, 2, static_cast<std::int64_t>(m.messages.total()));
    table.set(row, 3, common::format_percent(m.tsr()));
  }
  const auto& spider = spider_results.front().front().first();
  const auto row = table.add_row();
  table.set(row, 0, "without PCHs (source routing)");
  table.set(row, 1, spider.average_delay_s() * 1000.0, 1);
  table.set(row, 2, static_cast<std::int64_t>(spider.messages.total()));
  table.set(row, 3, common::format_percent(spider.tsr()));
  bench::emit(label, table, csv);
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== Fig. 9: smooth-node placement evaluation ===\n"
            << (bench::fast_mode() ? "(fast mode: quarter workload)\n" : "");

  const std::size_t threads = bench::thread_count(argc, argv);
  routing::ParallelRunner runner({threads, /*trials=*/1});

  common::Rng rng(bench::base_seed());
  const auto g_small = graph::watts_strogatz(100, 8, 0.15, rng);
  panels_abc(g_small, 12, threads);
  panel_d(threads);
  panels_ef("fig9(e) delay vs overhead, small scale", bench::small_scale_config(),
            "fig9e_delay_overhead_small", runner);
  auto large = bench::large_scale_config();
  large.workload.payment_count = bench::scaled(2000);
  panels_ef("fig9(f) delay vs overhead, large scale", large,
            "fig9f_delay_overhead_large", runner);
  return 0;
}
