#include "pcn/traffic_source.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace splicer::pcn {

namespace {

double synthetic_rate(const WorkloadConfig& config) {
  return static_cast<double>(config.payment_count) /
         std::max(config.horizon_seconds, 1e-9);
}

}  // namespace

// ---- VectorSource ---------------------------------------------------------

VectorSource::VectorSource(std::vector<Payment> payments)
    : owned_(std::move(payments)), view_(&owned_) {
  // The engine streams in arrival order; accept any vector and order it
  // here (stable, so equal-time payments keep their construction order —
  // and a no-op for the already-sorted generator outputs).
  std::stable_sort(owned_.begin(), owned_.end(),
                   [](const Payment& a, const Payment& b) {
                     return a.arrival_time < b.arrival_time;
                   });
  for (const auto& p : *view_) horizon_ = std::max(horizon_, p.deadline);
}

VectorSource::VectorSource(const std::vector<Payment>* payments)
    : view_(payments) {
  if (view_ == nullptr) {
    throw std::invalid_argument("VectorSource: null payment vector");
  }
  for (std::size_t i = 0; i < view_->size(); ++i) {
    if (i > 0 &&
        (*view_)[i].arrival_time < (*view_)[i - 1].arrival_time) {
      throw std::invalid_argument(
          "VectorSource: shared payment vector must be sorted by arrival");
    }
    horizon_ = std::max(horizon_, (*view_)[i].deadline);
  }
}

std::optional<Payment> VectorSource::next() {
  if (cursor_ >= view_->size()) return std::nullopt;
  return (*view_)[cursor_++];
}

std::size_t VectorSource::estimated_count() const { return view_->size(); }

// ---- SyntheticSource ------------------------------------------------------

SyntheticSource::SyntheticSource(std::vector<NodeId> clients,
                                 WorkloadConfig config, common::Rng rng)
    : clients_(std::move(clients)),
      config_(config),
      rng_(rng),
      value_sampler_(common::make_txn_value_sampler()),
      sender_sampler_(clients_.size(), config.sender_zipf),
      receiver_sampler_(clients_.size(), config.receiver_zipf),
      sender_order_(clients_),
      receiver_order_(clients_),
      arrivals_(synthetic_rate(config)) {
  if (clients_.size() < 2) {
    throw std::invalid_argument("SyntheticSource: need >= 2 clients");
  }
  config_.validate();
  // Distinct random popularity orders for senders and receivers, so the
  // hottest sender is generally not the hottest receiver. Draw order is
  // pinned by the fig7 byte-identity gate: sender shuffle, receiver
  // shuffle, then per payment sender / imbalance / receiver / value /
  // arrival (exactly the historical generate_payments()).
  rng_.shuffle(sender_order_);
  rng_.shuffle(receiver_order_);
  sink_count_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(clients_.size()) *
                                  config_.sink_fraction));
}

NodeId SyntheticSource::distinct_receiver(NodeId sender, NodeId receiver) const {
  if (receiver != sender) return receiver;
  // Deterministic fallback: next client in receiver order.
  const auto it =
      std::find(receiver_order_.begin(), receiver_order_.end(), sender);
  const auto idx = static_cast<std::size_t>(it - receiver_order_.begin());
  return receiver_order_[(idx + 1) % receiver_order_.size()];
}

std::pair<NodeId, NodeId> SyntheticSource::draw_endpoints() {
  const NodeId sender = sender_order_[sender_sampler_.sample(rng_)];
  NodeId receiver;
  if (rng_.bernoulli(config_.imbalance)) {
    // Route extra mass to the sink set: net funds drain toward them.
    receiver = receiver_order_[rng_.index(sink_count_)];
  } else {
    receiver = receiver_order_[receiver_sampler_.sample(rng_)];
  }
  return {sender, distinct_receiver(sender, receiver)};
}

double SyntheticSource::draw_arrival() { return arrivals_.next(rng_); }

std::optional<Payment> SyntheticSource::next() {
  if (emitted_ >= config_.payment_count) return std::nullopt;
  Payment p;
  p.id = static_cast<PaymentId>(emitted_ + 1);
  const auto [sender, receiver] = draw_endpoints();
  p.sender = sender;
  p.receiver = receiver;
  p.value = common::tokens(value_sampler_.sample(rng_) * config_.value_scale);
  p.value = std::max<Amount>(p.value, common::whole_tokens(1));
  p.arrival_time = draw_arrival();
  if (p.arrival_time < last_arrival_) {
    throw std::logic_error("SyntheticSource: arrivals not monotone");
  }
  last_arrival_ = p.arrival_time;
  p.deadline = p.arrival_time + config_.timeout_seconds;
  ++emitted_;
  return p;
}

double SyntheticSource::horizon_hint() const {
  return config_.horizon_seconds + config_.timeout_seconds;
}

// ---- BurstySource ---------------------------------------------------------

BurstySource::BurstySource(std::vector<NodeId> clients, WorkloadConfig config,
                           common::Rng rng)
    : SyntheticSource(std::move(clients), config, rng) {}

double BurstySource::draw_arrival() {
  // Thinning (Lewis-Shedler): candidates from a homogeneous process at the
  // peak rate, each kept with probability rate(t) / peak.
  const double base = synthetic_rate(config_);
  const double peak = base * (1.0 + config_.burst_amplitude);
  double t = last_arrival_;
  for (;;) {
    t += rng_.exponential(peak);
    const double rate =
        base * (1.0 + config_.burst_amplitude *
                          std::sin(2.0 * std::numbers::pi * t /
                                   config_.burst_period_s));
    if (rng_.uniform01() * peak <= rate) return t;
  }
}

double BurstySource::horizon_hint() const {
  // Troughs push the tail of the count-matched process past the nominal
  // horizon; half a burst period of slack covers the final trough.
  return config_.horizon_seconds + 0.5 * config_.burst_period_s +
         config_.timeout_seconds;
}

// ---- HotspotShiftSource ---------------------------------------------------

HotspotShiftSource::HotspotShiftSource(std::vector<NodeId> clients,
                                       WorkloadConfig config, common::Rng rng)
    : SyntheticSource(std::move(clients), config, rng) {
  next_shift_at_ = config_.hotspot_shift_interval_s;
  rotation_ = config_.hotspot_rotation != 0
                  ? std::min(config_.hotspot_rotation, clients_.size() - 1)
                  : std::max<std::size_t>(1, clients_.size() / 4);
}

std::pair<NodeId, NodeId> HotspotShiftSource::draw_endpoints() {
  // Rotate the popularity ranks when the stream's clock (the previous
  // arrival) crosses a shift boundary: the Zipf samplers are unchanged,
  // but which node holds each rank moves.
  while (last_arrival_ >= next_shift_at_) {
    std::rotate(sender_order_.begin(),
                sender_order_.begin() + static_cast<std::ptrdiff_t>(rotation_),
                sender_order_.end());
    std::rotate(
        receiver_order_.begin(),
        receiver_order_.begin() + static_cast<std::ptrdiff_t>(rotation_),
        receiver_order_.end());
    next_shift_at_ += config_.hotspot_shift_interval_s;
  }
  return SyntheticSource::draw_endpoints();
}

// ---- TraceSource ----------------------------------------------------------

TraceSource::TraceSource(std::string path, std::vector<NodeId> clients,
                         WorkloadConfig config)
    : path_(std::move(path)), clients_(std::move(clients)), config_(config) {
  if (clients_.size() < 2) {
    throw std::invalid_argument("TraceSource: need >= 2 clients");
  }
  config_.validate();
  // Pre-scan: row count, time base, monotonicity and the replay horizon in
  // one streaming pass (no rows are materialised).
  std::ifstream scan(path_);
  if (!scan) {
    throw std::invalid_argument("TraceSource: cannot open " + path_);
  }
  std::string line;
  Row row;
  double last_time = 0.0;
  double last_kept = 0.0;
  bool have_time_base = false;
  bool any_kept = false;
  while (std::getline(scan, line)) {
    if (!parse_line(line, row)) continue;
    if (!have_time_base) {
      time_base_ = row.time;
      have_time_base = true;
    }
    const double t = row.time - time_base_;
    if (t < last_time) {
      throw std::invalid_argument("TraceSource: rows not sorted by time in " +
                                  path_);
    }
    last_time = t;
    if (t >= config_.horizon_seconds) continue;  // horizon clip
    if (!config_.trace_remap) {
      // Numeric mode: endpoints must index the client set.
      char* end = nullptr;
      const auto s = std::strtoull(row.sender.c_str(), &end, 10);
      const bool s_ok = end != nullptr && *end == '\0' && s < clients_.size();
      const auto r = std::strtoull(row.receiver.c_str(), &end, 10);
      const bool r_ok = end != nullptr && *end == '\0' && r < clients_.size();
      if (!s_ok || !r_ok) continue;
    }
    ++rows_;
    last_kept = t;
    any_kept = true;
  }
  if (any_kept) horizon_ = last_kept + config_.timeout_seconds;
  in_.open(path_);
  if (!in_) {
    throw std::invalid_argument("TraceSource: cannot open " + path_);
  }
}

bool TraceSource::parse_line(const std::string& line, Row& row) const {
  if (line.empty() || line[0] == '#') return false;
  // time,sender,receiver,amount
  const auto c1 = line.find(',');
  if (c1 == std::string::npos) return false;
  const auto c2 = line.find(',', c1 + 1);
  if (c2 == std::string::npos) return false;
  const auto c3 = line.find(',', c2 + 1);
  if (c3 == std::string::npos || line.find(',', c3 + 1) != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  const std::string time_field = line.substr(0, c1);
  row.time = std::strtod(time_field.c_str(), &end);
  if (end == time_field.c_str() || *end != '\0') return false;  // header row
  row.sender = line.substr(c1 + 1, c2 - c1 - 1);
  row.receiver = line.substr(c2 + 1, c3 - c2 - 1);
  if (row.sender.empty() || row.receiver.empty()) return false;
  const std::string amount_field = line.substr(c3 + 1);
  // Trim a trailing carriage return (CRLF traces).
  row.amount = std::strtod(amount_field.c_str(), &end);
  if (end == amount_field.c_str() || (*end != '\0' && *end != '\r')) {
    return false;
  }
  return row.amount > 0.0;
}

std::optional<NodeId> TraceSource::map_endpoint(const std::string& label) {
  if (config_.trace_remap) {
    // Opaque labels (pubkeys, usernames): first-seen round-robin over the
    // client set, so a trace with more endpoints than clients folds onto
    // them deterministically.
    const auto [it, inserted] = remap_.try_emplace(label, NodeId{});
    if (inserted) {
      it->second = clients_[next_client_ % clients_.size()];
      ++next_client_;
    }
    return it->second;
  }
  char* end = nullptr;
  const auto idx = std::strtoull(label.c_str(), &end, 10);
  if (end == label.c_str() || *end != '\0' || idx >= clients_.size()) {
    return std::nullopt;  // unknown endpoint: caller skips the row
  }
  return clients_[idx];
}

std::optional<Payment> TraceSource::next() {
  std::string line;
  Row row;
  while (std::getline(in_, line)) {
    if (!parse_line(line, row)) {
      if (!line.empty() && line[0] != '#') ++skipped_;
      continue;
    }
    const double t = row.time - time_base_;
    if (t >= config_.horizon_seconds) {
      ++skipped_;
      continue;  // horizon clip (later rows may not be clipped if equal-time)
    }
    const auto sender = map_endpoint(row.sender);
    const auto receiver = map_endpoint(row.receiver);
    if (!sender || !receiver) {
      ++skipped_;
      continue;
    }
    Payment p;
    p.id = next_id_++;
    p.sender = *sender;
    p.receiver = *receiver;
    if (p.receiver == p.sender) {
      // Two labels folded onto one client: bump to the next client, like
      // the synthetic generator's distinct-receiver fallback.
      const auto at = std::find(clients_.begin(), clients_.end(), p.sender);
      const auto idx = static_cast<std::size_t>(at - clients_.begin());
      p.receiver = clients_[(idx + 1) % clients_.size()];
    }
    p.value = common::tokens(row.amount * config_.value_scale);
    p.value = std::max<Amount>(p.value, common::whole_tokens(1));
    p.arrival_time = t;
    p.deadline = t + config_.timeout_seconds;
    return p;
  }
  return std::nullopt;
}

// ---- Factory --------------------------------------------------------------

std::unique_ptr<TrafficSource> make_traffic_source(std::vector<NodeId> clients,
                                                   const WorkloadConfig& config,
                                                   common::Rng rng) {
  config.validate();
  if (clients.size() < 2) {
    throw std::invalid_argument("make_traffic_source: need >= 2 clients");
  }
  switch (config.kind) {
    case WorkloadKind::kSynthetic:
      return std::make_unique<SyntheticSource>(std::move(clients), config, rng);
    case WorkloadKind::kTrace:
      return std::make_unique<TraceSource>(config.trace_file,
                                           std::move(clients), config);
    case WorkloadKind::kBursty:
      return std::make_unique<BurstySource>(std::move(clients), config, rng);
    case WorkloadKind::kHotspot:
      return std::make_unique<HotspotShiftSource>(std::move(clients), config,
                                                  rng);
  }
  throw std::invalid_argument("make_traffic_source: unknown workload kind");
}

std::vector<Payment> drain(TrafficSource& source, std::size_t limit) {
  std::vector<Payment> payments;
  payments.reserve(std::min(source.estimated_count(), limit));
  while (payments.size() < limit) {
    auto p = source.next();
    if (!p) break;
    payments.push_back(*p);
  }
  return payments;
}

}  // namespace splicer::pcn
