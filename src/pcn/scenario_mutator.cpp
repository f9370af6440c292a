#include "pcn/scenario_mutator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace splicer::pcn {

const char* to_string(MutationEvent::Kind kind) noexcept {
  switch (kind) {
    case MutationEvent::Kind::kNodeDown: return "node-down";
    case MutationEvent::Kind::kNodeUp: return "node-up";
    case MutationEvent::Kind::kChannelClose: return "channel-close";
    case MutationEvent::Kind::kChannelReopen: return "channel-reopen";
    case MutationEvent::Kind::kFeePolicy: return "fee-policy";
    case MutationEvent::Kind::kTimelock: return "timelock";
  }
  return "?";
}

void HostileConfig::validate() const {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("HostileConfig: ") + what);
  };
  if (fault_rate < 0 || !std::isfinite(fault_rate)) {
    fail("fault_rate must be finite and >= 0");
  }
  if (churn_rate < 0 || !std::isfinite(churn_rate)) {
    fail("churn_rate must be finite and >= 0");
  }
  if (fee_policy_rate < 0 || !std::isfinite(fee_policy_rate)) {
    fail("fee_policy_rate must be finite and >= 0");
  }
  if (timelock_rate < 0 || !std::isfinite(timelock_rate)) {
    fail("timelock_rate must be finite and >= 0");
  }
  if (fault_rate > 0 && mean_down_s <= 0) {
    fail("mean_down_s must be > 0 when fault_rate is set");
  }
  if (churn_rate > 0 && mean_closed_s <= 0) {
    fail("mean_closed_s must be > 0 when churn_rate is set");
  }
  if (fee_base_cap < 0) fail("fee_base_cap must be >= 0");
  if (fee_proportional_cap < 0 || fee_proportional_cap >= 1) {
    fail("fee_proportional_cap must be in [0, 1)");
  }
  if (min_htlc_cap < 0) fail("min_htlc_cap must be >= 0");
  if (timelock_rate > 0 && timelock_max < 1) {
    fail("timelock_max must be >= 1 when timelock_rate is set");
  }
  if (timelock_budget < 1) {
    fail("timelock_budget must be >= 1 (kUnboundedTimelock disables it)");
  }
}

// ---------------------------------------------------------------------------
// PoissonMutator

PoissonMutator::PoissonMutator(double rate, double horizon, std::uint64_t seed)
    : rng_(seed), rate_(rate), horizon_(horizon) {
  if (rate_ <= 0) throw std::invalid_argument("PoissonMutator: rate must be > 0");
  next_primary_ = rng_.exponential(rate_);
}

std::optional<MutationEvent> PoissonMutator::next() {
  const auto later = [](const Followup& a, const Followup& b) {
    return a.time > b.time || (a.time == b.time && a.seq > b.seq);
  };
  for (;;) {
    const bool primary_due =
        next_primary_ < horizon_ &&
        (followups_.empty() || next_primary_ <= followups_.front().time);
    if (primary_due) {
      MutationEvent event;
      event.time = next_primary_;
      // Draw order is fixed: target/payload first, then the follow-up
      // delay, then the next inter-arrival — the stream is a pure
      // function of the seed.
      const double followup_delay = fill_primary(event);
      if (followup_delay > 0) {
        followups_.push_back(
            Followup{event.time + followup_delay, seq_++, event_target(event)});
        std::push_heap(followups_.begin(), followups_.end(), later);
      }
      next_primary_ += rng_.exponential(rate_);
      return event;
    }
    if (followups_.empty()) return std::nullopt;
    std::pop_heap(followups_.begin(), followups_.end(), later);
    const Followup f = followups_.back();
    followups_.pop_back();
    if (f.time >= horizon_) continue;  // clipped: the outage outlives the run
    MutationEvent event;
    event.time = f.time;
    fill_followup(event, f.target);
    return event;
  }
}

std::uint64_t PoissonMutator::event_target(const MutationEvent& event) noexcept {
  switch (event.kind) {
    case MutationEvent::Kind::kNodeDown:
    case MutationEvent::Kind::kNodeUp:
      return event.node;
    default:
      return event.channel;
  }
}

// ---------------------------------------------------------------------------
// NodeFaultMutator

NodeFaultMutator::NodeFaultMutator(std::size_t node_count, double fault_rate,
                                   double mean_down_s, double horizon,
                                   std::uint64_t seed)
    : PoissonMutator(fault_rate, horizon, seed),
      node_count_(node_count),
      mean_down_s_(mean_down_s) {
  if (node_count_ == 0) {
    throw std::invalid_argument("NodeFaultMutator: empty network");
  }
}

double NodeFaultMutator::fill_primary(MutationEvent& event) {
  event.kind = MutationEvent::Kind::kNodeDown;
  event.node = static_cast<NodeId>(rng_.index(node_count_));
  return rng_.exponential(1.0 / mean_down_s_);
}

void NodeFaultMutator::fill_followup(MutationEvent& event,
                                     std::uint64_t target) {
  event.kind = MutationEvent::Kind::kNodeUp;
  event.node = static_cast<NodeId>(target);
}

// ---------------------------------------------------------------------------
// ChannelChurnMutator

ChannelChurnMutator::ChannelChurnMutator(std::size_t channel_count,
                                         double churn_rate,
                                         double mean_closed_s, double horizon,
                                         std::uint64_t seed)
    : PoissonMutator(churn_rate, horizon, seed),
      channel_count_(channel_count),
      mean_closed_s_(mean_closed_s) {
  if (channel_count_ == 0) {
    throw std::invalid_argument("ChannelChurnMutator: no channels");
  }
}

double ChannelChurnMutator::fill_primary(MutationEvent& event) {
  event.kind = MutationEvent::Kind::kChannelClose;
  event.channel = static_cast<ChannelId>(rng_.index(channel_count_));
  return rng_.exponential(1.0 / mean_closed_s_);
}

void ChannelChurnMutator::fill_followup(MutationEvent& event,
                                        std::uint64_t target) {
  event.kind = MutationEvent::Kind::kChannelReopen;
  event.channel = static_cast<ChannelId>(target);
}

// ---------------------------------------------------------------------------
// FeePolicyMutator

FeePolicyMutator::FeePolicyMutator(std::size_t channel_count,
                                   const HostileConfig& config, double horizon,
                                   std::uint64_t seed)
    : PoissonMutator(config.fee_policy_rate, horizon, seed),
      channel_count_(channel_count),
      fee_base_cap_(config.fee_base_cap),
      fee_proportional_cap_(config.fee_proportional_cap),
      min_htlc_cap_(config.min_htlc_cap) {
  if (channel_count_ == 0) {
    throw std::invalid_argument("FeePolicyMutator: no channels");
  }
}

double FeePolicyMutator::fill_primary(MutationEvent& event) {
  event.kind = MutationEvent::Kind::kFeePolicy;
  event.channel = static_cast<ChannelId>(rng_.index(channel_count_));
  event.policy.fee_base =
      fee_base_cap_ > 0 ? rng_.uniform_int(0, fee_base_cap_) : 0;
  event.policy.fee_proportional =
      fee_proportional_cap_ > 0 ? rng_.uniform(0.0, fee_proportional_cap_) : 0.0;
  event.policy.min_htlc =
      min_htlc_cap_ > 0 ? rng_.uniform_int(0, min_htlc_cap_) : 0;
  return 0.0;  // policy rewrites have no follow-up
}

void FeePolicyMutator::fill_followup(MutationEvent& event,
                                     std::uint64_t target) {
  (void)event;
  (void)target;
  throw std::logic_error("FeePolicyMutator: no follow-ups are scheduled");
}

// ---------------------------------------------------------------------------
// TimelockMutator

TimelockMutator::TimelockMutator(std::size_t channel_count,
                                 double timelock_rate,
                                 std::uint32_t timelock_max, double horizon,
                                 std::uint64_t seed)
    : PoissonMutator(timelock_rate, horizon, seed),
      channel_count_(channel_count),
      timelock_max_(timelock_max) {
  if (channel_count_ == 0) {
    throw std::invalid_argument("TimelockMutator: no channels");
  }
  if (timelock_max_ < 1) {
    throw std::invalid_argument("TimelockMutator: timelock_max must be >= 1");
  }
}

double TimelockMutator::fill_primary(MutationEvent& event) {
  event.kind = MutationEvent::Kind::kTimelock;
  event.channel = static_cast<ChannelId>(rng_.index(channel_count_));
  event.policy.timelock =
      static_cast<std::uint32_t>(rng_.uniform_int(1, timelock_max_));
  return 0.0;
}

void TimelockMutator::fill_followup(MutationEvent& event,
                                    std::uint64_t target) {
  (void)event;
  (void)target;
  throw std::logic_error("TimelockMutator: no follow-ups are scheduled");
}

// ---------------------------------------------------------------------------
// make_mutators

std::vector<std::unique_ptr<ScenarioMutator>> make_mutators(
    const HostileConfig& config, std::size_t node_count,
    std::size_t channel_count, double horizon) {
  config.validate();
  std::vector<std::unique_ptr<ScenarioMutator>> mutators;
  if (!config.any_mutation_active()) return mutators;
  // Fixed sub-seed derivation and fixed construction order: the merged
  // stream (and its engine tie-breaking, which fires lower mutator indices
  // first at equal timestamps) is a pure function of config.seed.
  std::uint64_t state = config.seed;
  const std::uint64_t fault_seed = common::splitmix64(state);
  const std::uint64_t churn_seed = common::splitmix64(state);
  const std::uint64_t fee_seed = common::splitmix64(state);
  const std::uint64_t timelock_seed = common::splitmix64(state);
  if (config.fault_rate > 0) {
    mutators.push_back(std::make_unique<NodeFaultMutator>(
        node_count, config.fault_rate, config.mean_down_s, horizon,
        fault_seed));
  }
  if (config.churn_rate > 0) {
    mutators.push_back(std::make_unique<ChannelChurnMutator>(
        channel_count, config.churn_rate, config.mean_closed_s, horizon,
        churn_seed));
  }
  if (config.fee_policy_rate > 0) {
    mutators.push_back(std::make_unique<FeePolicyMutator>(
        channel_count, config, horizon, fee_seed));
  }
  if (config.timelock_rate > 0) {
    mutators.push_back(std::make_unique<TimelockMutator>(
        channel_count, config.timelock_rate, config.timelock_max, horizon,
        timelock_seed));
  }
  return mutators;
}

}  // namespace splicer::pcn
