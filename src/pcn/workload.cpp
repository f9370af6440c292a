#include "pcn/workload.h"

#include <cmath>
#include <stdexcept>

#include "pcn/traffic_source.h"

namespace splicer::pcn {

const char* to_string(WorkloadKind kind) noexcept {
  switch (kind) {
    case WorkloadKind::kSynthetic: return "synthetic";
    case WorkloadKind::kTrace: return "trace";
    case WorkloadKind::kBursty: return "bursty";
    case WorkloadKind::kHotspot: return "hotspot";
  }
  return "?";
}

WorkloadKind workload_kind_from(const std::string& name) {
  if (name == "synthetic") return WorkloadKind::kSynthetic;
  if (name == "trace") return WorkloadKind::kTrace;
  if (name == "bursty") return WorkloadKind::kBursty;
  if (name == "hotspot") return WorkloadKind::kHotspot;
  throw std::invalid_argument(
      "unknown workload kind '" + name +
      "' (expected synthetic|trace|bursty|hotspot)");
}

void WorkloadConfig::validate() const {
  // A trace replays however many rows the file holds; every generative
  // kind needs a positive target count.
  if (kind != WorkloadKind::kTrace && payment_count == 0) {
    throw std::invalid_argument("WorkloadConfig: payment_count must be > 0");
  }
  if (!(horizon_seconds > 0.0)) {
    throw std::invalid_argument("WorkloadConfig: horizon_seconds must be > 0");
  }
  if (!(timeout_seconds > 0.0)) {
    throw std::invalid_argument("WorkloadConfig: timeout_seconds must be > 0");
  }
  if (!(sink_fraction >= 0.0 && sink_fraction <= 1.0)) {
    throw std::invalid_argument(
        "WorkloadConfig: sink_fraction must be in [0, 1]");
  }
  if (!(imbalance >= 0.0 && imbalance <= 1.0)) {
    throw std::invalid_argument("WorkloadConfig: imbalance must be in [0, 1]");
  }
  // An infinite scale would convert an infinite token value to Amount.
  if (!(std::isfinite(value_scale) && value_scale > 0.0)) {
    throw std::invalid_argument(
        "WorkloadConfig: value_scale must be finite and > 0");
  }
  if (sender_zipf < 0.0 || receiver_zipf < 0.0) {
    throw std::invalid_argument("WorkloadConfig: zipf exponents must be >= 0");
  }
  if (kind == WorkloadKind::kTrace && trace_file.empty()) {
    throw std::invalid_argument(
        "WorkloadConfig: trace workload needs a trace_file");
  }
  if (kind == WorkloadKind::kBursty) {
    if (!(burst_period_s > 0.0)) {
      throw std::invalid_argument("WorkloadConfig: burst_period_s must be > 0");
    }
    if (!(burst_amplitude >= 0.0 && burst_amplitude <= 1.0)) {
      throw std::invalid_argument(
          "WorkloadConfig: burst_amplitude must be in [0, 1]");
    }
  }
  if (kind == WorkloadKind::kHotspot && !(hotspot_shift_interval_s > 0.0)) {
    throw std::invalid_argument(
        "WorkloadConfig: hotspot_shift_interval_s must be > 0");
  }
}

std::vector<Payment> generate_payments(const std::vector<NodeId>& clients,
                                       const WorkloadConfig& config,
                                       common::Rng& rng) {
  if (clients.size() < 2) {
    throw std::invalid_argument("generate_payments: need >= 2 clients");
  }
  // The synthetic stream consumes the RNG in exactly the order this
  // function historically drew; hand the final state back so callers that
  // keep using `rng` afterwards see an unchanged stream.
  SyntheticSource source(clients, config, rng);
  auto payments = drain(source, config.payment_count);
  rng = source.rng_state();
  return payments;
}

std::vector<Amount> net_flow_by_node(std::size_t node_count,
                                     const std::vector<Payment>& payments) {
  std::vector<Amount> net(node_count, 0);
  for (const auto& p : payments) {
    net.at(p.sender) -= p.value;
    net.at(p.receiver) += p.value;
  }
  return net;
}

}  // namespace splicer::pcn
