// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--source-id ID] [--spans PATH]
//   perfbench --describe
//
// Repeats fixed passes over one workload (see workload.h) for S seconds on
// one thread and prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics from untraced passes; --trace 1
// alternates untraced and traced passes and reports the per-layer metrics
// (plus trace_overhead, the traced/untraced wall-time ratio minus 1), a
// layer-share table, and writes the traced spans to --spans as CSV.
// Any failed operation makes the exit code 1.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "trace.h"
#include "workload.h"

namespace {

using perfbench::PassResult;
using splicer::routing::Scheme;
using perfbench::Workload;

struct Metric {
  std::string name;
  std::string unit;
  std::string better;  // "lower" | "higher" | "" (informational)
  double bound = 0.0;  // end-to-end only
};

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> list{
      {"setup_s", "s", "lower", 0.25},
      {"wall_s", "s", "lower", 0.25},
      {"cpu_s", "s", "lower", 0.25},
      {"payments_per_s", "1/s", "higher", 0.25},
      {"peak_rss_mib", "MiB", "lower", 0.15},
      {"splicer_tsr", "ratio", "higher", 0.15},
      {"splicer_throughput", "ratio", "higher", 0.25},
      {"splicer_delay_s", "sim_s", "lower", 0.25},
      {"splicer_throughput_vs_best", "ratio", "higher", 0.25},
      {"mean_tsr", "ratio", "higher", 0.15},
      {"approx_ratio", "ratio", "lower", 0.1},
  };
  return list;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> list = [] {
    std::vector<Metric> m;
    const auto add = [&](std::string name, std::string unit, std::string better = "lower") {
      m.push_back({std::move(name), std::move(unit), std::move(better), 0.0});
    };
    for (const auto scheme : perfbench::all_schemes()) {
      const std::string s = perfbench::scheme_key(scheme);
      add("sim.events." + s, "count");
      add("sim.pending_max." + s, "count");
      add("routing.run_s." + s, "s");
      add("routing.engine_self_s." + s, "s");
      add("routing.engine_ns_per_event." + s, "ns");
      add("routing.router.payment_s." + s, "s");
      add("routing.router.payment_us_p50." + s, "us");
      add("routing.router.payment_us_p99." + s, "us");
      add("routing.router.payment_calls." + s, "count");
      // Flash, Landmark and ShortestPath arm no router timers.
      if (scheme == Scheme::kSplicer || scheme == Scheme::kSpider || scheme == Scheme::kA2l) {
        add("routing.router.timer_s." + s, "s");
        add("routing.router.timer_calls." + s, "count");
      }
      add("routing.router.tu_hooks_s." + s, "s");
      add("routing.router.other_s." + s, "s");
      add("routing.tu_delivery_ratio." + s, "ratio", "higher");
    }
    for (const char* s : {"splicer", "spider"}) {
      add(std::string("routing.rate.price_updates_skipped.") + s, "count", "higher");
      add(std::string("routing.rate.probe_sums_reused.") + s, "count", "higher");
      add(std::string("routing.rate.active_pairs_peak.") + s, "count");
      add(std::string("sim.probe_messages.") + s, "count");
    }
    for (const char* k : {"dijkstra", "select_paths", "max_flow"}) {
      add(std::string("graph.") + k + "_us_p50", "us");
      add(std::string("graph.") + k + "_us_p99", "us");
    }
    add("pcn.topology_s", "s");
    add("pcn.workload_s", "s");
    add("pcn.mutation_events", "count");
    add("placement.instance_s", "s");
    add("placement.solve_s", "s");
    add("placement.transform_s", "s");
    add("placement.milp_s", "s");
    add("placement.exhaustive_s", "s");
    add("placement.approx_s", "s");
    add("lp.bb_nodes", "count");
    add("lp.bb_pruned", "count", "higher");
    add("placement.exhaustive_subsets", "count");
    add("submodular.oracle_calls", "count");
    add("trace_overhead", "ratio");
    return m;
  }();
  return list;
}

// What each reported ratio divides by.
constexpr const char* kRatioBases =
    "\"payments_per_s\": \"wall seconds of the scheme runs\", "
    "\"splicer_tsr\": \"Splicer payments generated\", "
    "\"splicer_throughput\": \"Splicer value generated\", "
    "\"splicer_throughput_vs_best\": \"best of Spider/Flash/Landmark/A2L throughput, "
    "over the trials all six schemes ran on\", "
    "\"mean_tsr\": \"payments generated, per scheme run\", "
    "\"approx_ratio\": \"exhaustive-optimal C_B, per solve\", "
    "\"routing.engine_ns_per_event\": \"sim.events\", "
    "\"routing.tu_delivery_ratio\": \"tus_sent\", "
    "\"trace_overhead\": \"untraced wall_s\"";

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void describe() {
  std::cout << "{\"workloads\": [";
  const auto& list = perfbench::workloads();
  for (std::size_t i = 0; i < list.size(); ++i) {
    std::cout << (i ? ", " : "") << "{\"name\": \"" << list[i].name
              << "\", \"why\": \"" << json_escape(list[i].why) << "\"}";
  }
  const auto metrics = [](const std::vector<Metric>& m, bool bound) {
    std::string out;
    for (std::size_t i = 0; i < m.size(); ++i) {
      out += (i ? ", " : "");
      out += "{\"name\": \"" + m[i].name + "\", \"unit\": \"" + m[i].unit +
             "\", \"better\": \"" + m[i].better + "\"";
      if (bound) out += ", \"bound\": " + number(m[i].bound);
      out += "}";
    }
    return out;
  };
  std::cout << "], \"end_to_end\": [" << metrics(end_to_end_metrics(), true)
            << "], \"per_layer\": [" << metrics(per_layer_metrics(), false) << "]}\n";
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

template <class F>
std::vector<double> collect(const std::vector<PassResult>& passes, F&& field) {
  std::vector<double> out;
  for (const auto& p : passes) out.push_back(field(p));
  return out;
}

double median(std::vector<double> v) { return splicer::common::median(std::move(v)); }

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string source_id = "unknown";
  std::string spans;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      o.trace = std::atoi(value);
    } else if (key == "--source-id") {
      o.source_id = value;
    } else if (key == "--spans") {
      o.spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0 &&
         (o.trace == 0 || o.trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--describe") == 0) {
    describe();
    return 0;
  }
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--source-id ID] [--spans PATH] | --describe\n";
    return 2;
  }
  const Workload* workload = nullptr;
  for (const auto& w : perfbench::workloads()) {
    if (w.name == opt.workload) workload = &w;
  }
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }

  // ---- passes ----------------------------------------------------------------
  // One untimed warm-up pass (the first pass of a process runs up to ~30% slower:
  // allocator growth, cold caches), then untraced passes only for
  // --trace 0, or untraced and traced alternating for --trace 1: at least
  // three (two + two) passes, then until time is up. The warm-up is checked
  // like every other pass and is the digest reference.
  const bool traced_run = opt.trace == 1;
  perfbench::SpanLog log(traced_run ? (std::size_t{1} << 19) : 0);
  const PassResult warmup = perfbench::run_pass(*workload, opt.seed, nullptr);
  std::printf("pass 0 warm-up:   setup_s %.6f wall_s %.6f cpu_s %.6f\n", warmup.setup_s,
              warmup.wall_s, warmup.cpu_s);
  std::vector<PassResult> plain, traced;
  const std::size_t min_plain = traced_run ? 2 : 3;
  const std::size_t min_traced = traced_run ? 2 : 0;
  const std::int64_t start = perfbench::wall_ns();
  const auto elapsed = [&] { return static_cast<double>(perfbench::wall_ns() - start) * 1e-9; };
  while (plain.size() < min_plain || traced.size() < min_traced || elapsed() < opt.seconds) {
    plain.push_back(perfbench::run_pass(*workload, opt.seed, nullptr));
    std::printf("pass %zu untraced: setup_s %.6f wall_s %.6f cpu_s %.6f\n", plain.size(),
                plain.back().setup_s, plain.back().wall_s, plain.back().cpu_s);
    if (traced_run) {
      traced.push_back(perfbench::run_pass(*workload, opt.seed, &log));
      std::printf("pass %zu traced:   setup_s %.6f wall_s %.6f cpu_s %.6f\n", traced.size(),
                  traced.back().setup_s, traced.back().wall_s, traced.back().cpu_s);
    }
  }

  // ---- correctness -----------------------------------------------------------
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  const std::uint64_t reference = warmup.digest;
  const auto account = [&](const PassResult& p, const char* kind, std::size_t index) {
    attempted += p.operations;
    std::size_t bad = p.failures.size();
    for (const auto& f : p.failures) problems.push_back(f);
    if (p.digest != reference) {
      bad = p.operations;
      problems.push_back(std::string(kind) + " pass " + std::to_string(index) +
                         ": simulated-output digest differs from the warm-up pass");
    }
    failed += std::min(bad, p.operations);
  };
  account(warmup, "warm-up", 0);
  for (std::size_t i = 0; i < plain.size(); ++i) account(plain[i], "untraced", i + 1);
  for (std::size_t i = 0; i < traced.size(); ++i) account(traced[i], "traced", i + 1);

  // ---- metrics ---------------------------------------------------------------
  const PassResult& first = plain.front();
  const double wall = median(collect(plain, [](const PassResult& p) { return p.wall_s; }));
  std::map<std::string, double> metrics;
  std::string percentile_samples;  // sample count behind each percentile
  if (!traced_run) {
    metrics["setup_s"] = median(collect(plain, [](const PassResult& p) { return p.setup_s; }));
    metrics["wall_s"] = wall;
    metrics["cpu_s"] = median(collect(plain, [](const PassResult& p) { return p.cpu_s; }));
    metrics["payments_per_s"] =
        static_cast<double>(first.payments) /
        median(collect(plain, [](const PassResult& p) { return p.routing_s; }));
    metrics["peak_rss_mib"] = peak_rss_mib();
    metrics["splicer_tsr"] = first.splicer_tsr;
    metrics["splicer_throughput"] = first.splicer_throughput;
    metrics["splicer_delay_s"] = first.splicer_delay_s;
    metrics["splicer_throughput_vs_best"] = first.splicer_vs_best;
    metrics["mean_tsr"] = first.mean_tsr;
    metrics["approx_ratio"] = first.approx_ratio;
  } else {
    std::map<std::string, std::vector<double>> values, samples;
    for (const auto& p : traced) {
      for (const auto& [k, v] : p.layers.values) values[k].push_back(v);
      for (const auto& [k, v] : p.layers.samples) {
        samples[k].insert(samples[k].end(), v.begin(), v.end());
      }
    }
    const auto value = [&](const std::string& k) {
      const auto it = values.find(k);
      return it == values.end() ? 0.0 : median(it->second);
    };
    const auto pct = [&](const std::string& k, double q) {
      const auto it = samples.find(k);
      return it == samples.end() ? 0.0 : splicer::common::percentile(it->second, q);
    };
    for (const auto& [k, v] : samples) {
      percentile_samples += (percentile_samples.empty() ? "\"" : ", \"") + k +
                            "\": " + std::to_string(v.size());
    }
    for (const auto& m : per_layer_metrics()) metrics[m.name] = value(m.name);
    for (const auto scheme : perfbench::all_schemes()) {
      const std::string s = perfbench::scheme_key(scheme);
      const double events = value("sim.events." + s);
      metrics["routing.engine_ns_per_event." + s] =
          events > 0 ? value("routing.engine_self_s." + s) * 1e9 / events : 0.0;
      metrics["routing.router.payment_us_p50." + s] = pct("routing.router.payment_us." + s, 0.5);
      metrics["routing.router.payment_us_p99." + s] = pct("routing.router.payment_us." + s, 0.99);
      const double sent = value("routing.tus_sent." + s);
      metrics["routing.tu_delivery_ratio." + s] =
          sent > 0 ? value("routing.tus_delivered." + s) / sent : 0.0;
    }
    for (const char* k : {"dijkstra", "select_paths", "max_flow"}) {
      const std::string base = std::string("graph.") + k + "_us";
      metrics[base + "_p50"] = pct(base, 0.5);
      metrics[base + "_p99"] = pct(base, 0.99);
    }
    const double traced_wall =
        median(collect(traced, [](const PassResult& p) { return p.wall_s; }));
    metrics["trace_overhead"] = traced_wall / wall - 1.0;

    // Layer shares of wall_s in the traced pass with the median wall time.
    std::vector<const PassResult*> order;
    for (const auto& p : traced) order.push_back(&p);
    std::sort(order.begin(), order.end(),
              [](const PassResult* a, const PassResult* b) { return a->wall_s < b->wall_s; });
    const PassResult& mid = *order[order.size() / 2];
    const auto share = [&](const std::string& k) {
      const auto it = mid.layers.values.find(k);
      return it == mid.layers.values.end() ? 0.0 : it->second;
    };
    std::printf("\nLayer shares of wall_s in the median traced pass (%.4f s; %zu traced "
                "passes, untraced median wall_s %.4f s over %zu passes)\n",
                mid.wall_s, traced.size(), wall, plain.size());
    std::printf("%-14s %10s %8s %8s %8s %8s %8s\n", "scheme", "run_s", "engine",
                "payment", "timer", "tu_hooks", "other");
    double attributed = 0.0;
    for (const auto scheme : perfbench::all_schemes()) {
      const std::string s = perfbench::scheme_key(scheme);
      const double run = share("routing.run_s." + s);
      attributed += run;
      std::printf("%-14s %10.4f %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", s.c_str(), run,
                  100 * share("routing.engine_self_s." + s) / mid.wall_s,
                  100 * share("routing.router.payment_s." + s) / mid.wall_s,
                  100 * share("routing.router.timer_s." + s) / mid.wall_s,
                  100 * share("routing.router.tu_hooks_s." + s) / mid.wall_s,
                  100 * share("routing.router.other_s." + s) / mid.wall_s);
    }
    const double solves = share("placement.milp_s") + share("placement.exhaustive_s") +
                          share("placement.approx_s");
    attributed += solves;
    std::printf("%-14s %10.4f %7.1f%%  (milp %.6f s, exhaustive %.6f s, approx %.6f s)\n",
                "placement", solves, 100 * solves / mid.wall_s, share("placement.milp_s"),
                share("placement.exhaustive_s"), share("placement.approx_s"));
    std::printf("%-14s %10.4f %7.1f%%\n", "unattributed", mid.wall_s - attributed,
                100 * (mid.wall_s - attributed) / mid.wall_s);
    std::printf("graph kernels on %zu sampled pairs (outside wall_s): dijkstra p50 %.1f us, "
                "select_paths p50 %.1f us, max_flow p50 %.1f us\n",
                samples["graph.dijkstra_us"].size(), metrics["graph.dijkstra_us_p50"],
                metrics["graph.select_paths_us_p50"], metrics["graph.max_flow_us_p50"]);
    if (!opt.spans.empty() && !log.write_csv(opt.spans)) {
      problems.push_back("cannot write spans to " + opt.spans);
      ++failed;
    }
  }

  // ---- report ----------------------------------------------------------------
  for (const auto& p : problems) std::cerr << "perfbench: FAILED " << p << "\n";
  std::printf("\n%s seed %llu: %zu untraced + %zu traced passes, %zu operations, %zu failed\n",
              workload->name.c_str(), static_cast<unsigned long long>(opt.seed), plain.size(),
              traced.size(), attempted, failed);
  std::printf("splicer_gain = %.4f (Splicer throughput / best of Spider, Flash, Landmark, "
              "A2L = %.4f, minus 1)\n",
              first.splicer_vs_best - 1.0,
              first.best_baseline_throughput);
  const auto& metric_list = traced_run ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& m : metric_list) {
    std::printf("  %-44s %16.6g %s\n", m.name.c_str(), metrics[m.name], m.unit.c_str());
  }
  std::printf(
      "stamp: {\"source\": \"%s\", \"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"median_samples\": {\"untraced_passes\": %zu, \"traced_passes\": %zu}, "
      "\"percentile_samples\": {%s}, \"ratio_bases\": {%s}, "
      "\"spans_recorded\": %zu, \"spans_dropped\": %llu}\n",
      json_escape(opt.source_id).c_str(), std::thread::hardware_concurrency(),
      json_escape(cpu_model()).c_str(), json_escape(__VERSION__).c_str(),
      workload->name.c_str(), static_cast<unsigned long long>(opt.seed),
      number(opt.seconds).c_str(), opt.trace, plain.size(), traced.size(),
      percentile_samples.c_str(), kRatioBases, log.recorded(),
      static_cast<unsigned long long>(log.dropped()));

  std::string out = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metric_list.size(); ++i) {
    const auto& m = metric_list[i];
    out += (i ? ", " : "");
    out += "\"" + m.name + "\": {\"value\": " + number(metrics[m.name]) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return failed == 0 ? 0 : 1;
}
