#include "routing/rate_protocol.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "routing/path_filter.h"

namespace splicer::routing {

void RateRouterBase::require_tick_period(double period, const char* what) {
  if (!std::isfinite(period) || period <= 0) {
    throw std::invalid_argument(std::string(what) +
                                " must be finite and > 0");
  }
}

void RateRouterBase::on_start(Engine& engine) {
  require_tick_period(config_.tau_s, "RateProtocolConfig::tau_s");
  const std::size_t channels = engine.network().channel_count();
  prices_.assign(channels, ChannelPrices{});
  // channel_price() of the zero-initialised prices is 0 for every
  // direction, so the flat mirror starts at zero too.
  price_flat_.assign(2 * channels, 0.0);

  // Incremental-tick state. The default mode skips provably-identity
  // per-tick work; full_recompute_ticks forces the legacy full sweeps so
  // CI can diff the two modes' outputs byte for byte.
  full_recompute_ = engine.config().full_recompute_ticks;
  tick_ = 0;
  flat_tick_.assign(2 * channels, 0);
  channel_active_.assign(channels, 0);
  active_channels_.clear();
  sleep_subs_.assign(2 * channels, {});
  wake_heap_.clear();
  active_pairs_.clear();
  if (!full_recompute_) {
    engine.enable_dirty_channel_tracking();
    // A reused router may carry pairs from a previous run: every pair
    // starts the run awake (the ordered map yields the sorted list).
    for (auto& [key, state] : pairs_) {
      state.key = key;
      state.awake = true;
      state.sleep_epoch = 0;
      state.subs_epoch = ~std::uint64_t{0};
      active_pairs_.push_back(&state);
    }
  }

  // The tau tick re-arms itself from on_timer until past_horizon().
  engine.schedule_timer(config_.tau_s, 0, kPriceTickTimer);
}

void RateRouterBase::run_protocol_tick(Engine& engine) {
  update_prices(engine);
  probe_pairs(engine);
}

void RateRouterBase::on_payment(Engine& engine, const pcn::Payment& payment) {
  const double delay = decision_delay(engine, payment);
  if (delay <= 0.0) {
    admit_demand(engine, payment);
  } else {
    // Typed deferred admit: the engine's PaymentState holds the payment, so
    // the timer only needs the id — no per-payment closure allocation.
    engine.schedule_timer(delay, payment.id, kAdmitTimer);
  }
}

void RateRouterBase::on_timer(Engine& engine, std::uint64_t a, std::uint64_t b) {
  if (b == kPriceTickTimer) {
    // workload_horizon() is queried per tick: for streaming sources it
    // grows as payments are pulled, so price updates keep running until
    // the tail payments' deadlines have passed. The successor is armed
    // after the body, so events the tick schedules keep their sequence
    // numbers ahead of it.
    if (engine.past_horizon()) return;
    run_protocol_tick(engine);
    engine.schedule_timer(config_.tau_s, 0, kPriceTickTimer);
    return;
  }
  if (b == kAdmitTimer) {
    // Checked lookup: the decision delay can outlive the payment, and a
    // resolved state may already be evicted.
    const auto* state = engine.find_payment_state(a);
    if (state == nullptr || !state->active()) return;  // already timed out
    // SPLICER_LINT_ALLOW(slab-alias-escape): admit_demand re-fetches the
    // state by payment.id before acting; its fail_payment path returns
    // without touching the ref again, and the drip scheduling that can
    // reach send_tu runs after the last read of the aliased payment.
    admit_demand(engine, state->payment);
    return;
  }
  const PairKey pair = unpack_pair(a);
  pair_state(pair).paths[b].drip_scheduled = false;
  try_send(engine, pair, b);
}

void RateRouterBase::admit_demand(Engine& engine, const pcn::Payment& payment) {
  // Checked lookup: the decision delay can outlive the payment, and a
  // resolved state may already be evicted.
  const auto* state = engine.find_payment_state(payment.id);
  if (state == nullptr || !state->active()) return;  // already timed out
  const PairKey pair = pair_of(engine, payment);
  PairState* ps = ensure_pair(engine, pair);
  if (ps == nullptr || ps->paths.empty()) {
    engine.fail_payment(payment.id, FailReason::kNoPath);
    return;
  }
  pair_of_payment_[payment.id] = pair;
  wake_pair(*ps);  // new demand: the pair can no longer sit out probe sweeps
  ps->demands.push_back(DemandEntry{payment.id, payment.value});
  for (std::size_t i = 0; i < ps->paths.size(); ++i) {
    schedule_drip(engine, pair, i);
  }
}

RateRouterBase::PairState* RateRouterBase::ensure_pair(Engine& engine,
                                                       const PairKey& pair) {
  const auto it = pairs_.find(pair);
  if (it != pairs_.end()) return &it->second;

  PairState state;
  state.key = pair;
  // SPLICER_LINT_ALLOW(hotpath-alloc): first-touch pair construction — runs
  // once per (src, dst) pair on its first demand, never per TU or per tick.
  const std::vector<graph::Path> pair_paths = compute_pair_paths(engine, pair);
  // SPLICER_LINT_ALLOW(hotpath-alloc): same first-touch path — sizes the
  // pair's path list once for the pair's lifetime.
  state.paths.reserve(pair_paths.size());
  for (const auto& p : pair_paths) {
    auto full = assemble_path(engine, pair.from, pair.to, p);
    if (!full || full->edges.empty()) continue;
    PathState path_state;
    // One pass per hop fetches the channel record once for both the
    // capacity constraint (eq. 18: the sustained rate on a channel cannot
    // exceed c_ab / Delta; start at most there) and the directed hop index.
    double bottleneck = std::numeric_limits<double>::infinity();
    // SPLICER_LINT_ALLOW(hotpath-alloc): first-touch pair construction —
    // the hop index is built once per path when the pair is created.
    path_state.hop_index.reserve(full->edges.size());
    for (std::size_t i = 0; i < full->edges.size(); ++i) {
      const ChannelId e = full->edges[i];
      const auto& ch = engine.network().channel(e);
      bottleneck = std::min(bottleneck, common::to_tokens(ch.capacity()));
      const auto d = ch.direction_from(full->nodes[i]);
      path_state.hop_index.push_back(
          static_cast<std::uint32_t>(2 * e + pcn::dir_index(d)));
    }
    const double capacity_rate = bottleneck / std::max(config_.delta_rtt_s, 1e-6);
    path_state.full_path = std::move(*full);
    path_state.rate_tps = std::min(config_.initial_rate_tps, capacity_rate);
    path_state.window = config_.initial_window;
    state.paths.push_back(std::move(path_state));
  }
  if (state.paths.empty()) return nullptr;
  PairState* stored = &pairs_.emplace(pair, std::move(state)).first->second;
  pair_index_.emplace(pack_pair(pair), stored);
  if (!full_recompute_) {
    // New pairs are born awake; keep the active list sorted by key.
    const auto pos = std::lower_bound(
        active_pairs_.begin(), active_pairs_.end(), pair,
        [](const PairState* p, const PairKey& key) { return p->key < key; });
    active_pairs_.insert(pos, stored);
  }
  return stored;
}

// SPLICER_LINT_ALLOW(hotpath-alloc): first-touch pair construction — path
// selection runs once per pair (ensure_pair miss), never per TU or per tick.
std::vector<graph::Path> RateRouterBase::compute_pair_paths(
    Engine& engine, const PairKey& pair) const {
  return graph::select_paths(engine.network().topology(), pair.from, pair.to,
                             config_.k_paths, config_.path_type);
}

void RateRouterBase::update_prices(Engine& engine) {
  ++tick_;
  auto& network = engine.network();
  // Fold the engine's dirty-channel feed (every fund move since the last
  // tick) into the active set. Fund moves without arrivals are themselves
  // identity updates today (imbalance 0 zeroes the urgency term before the
  // balance-dependent normaliser matters), but activating them keeps the
  // skip provably safe against any future balance-dependent price term.
  for (const ChannelId c : engine.dirty_channels()) activate_channel(c);
  engine.clear_dirty_channels();

  if (full_recompute_) {
    // Legacy sweep: eqs. (21)-(22) applied to every channel every tau.
    for (ChannelId c = 0; c < network.channel_count(); ++c) {
      (void)update_channel_price(engine, c);
    }
    return;
  }
  // Incremental sweep: only channels whose update can differ from the
  // identity — ever-touched channels still carrying price state plus this
  // window's dirty feed. Visit order does not matter (per-channel updates
  // are independent) but is deterministic anyway: first-activation order
  // is a function of the event stream. Channels whose post-update state is
  // exactly zero retire until re-activated.
  const std::size_t visited = active_channels_.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < visited; ++i) {
    const ChannelId c = active_channels_[i];
    if (update_channel_price(engine, c)) {
      active_channels_[kept++] = c;
    } else {
      channel_active_[c] = 0;
    }
  }
  // SPLICER_LINT_ALLOW(hotpath-alloc): compaction shrink — kept <= size(),
  // so this resize never reallocates.
  active_channels_.resize(kept);
  engine.metrics().price_updates_skipped += network.channel_count() - visited;
}

bool RateRouterBase::update_channel_price(Engine& engine, ChannelId c) {
  auto& network = engine.network();
  auto& p = prices_[c];
  const double capacity_tokens = common::to_tokens(network.channel(c).capacity());
  // Funds required to sustain the current arrival rates for one lock
  // duration Delta (n_a + n_b of eq. 21).
  const double scale = config_.delta_rtt_s / config_.tau_s;
  const double required =
      (p.arrived_tokens[0] + p.arrived_tokens[1]) * scale;
  const double cap = std::max(capacity_tokens, 1e-9);
  p.lambda = std::clamp(
      p.lambda + config_.kappa * (required - capacity_tokens) / cap, 0.0,
      config_.max_price);
  // Imbalance urgency: the same net drain matters in proportion to the
  // funds remaining on the side being drained - the quantity the balance
  // constraint (eq. 19) ultimately protects. The cap/3 ceiling engages
  // the brake while headroom still exists (a side holding most of the
  // channel is not "safe" if the drain rate empties it within seconds).
  const auto& ch = network.channel(c);
  const double imbalance_tokens = p.arrived_tokens[0] - p.arrived_tokens[1];
  const double floor_tokens = 0.01 * cap;
  const double draining_side = common::to_tokens(
      ch.available(imbalance_tokens >= 0 ? pcn::Direction::kForward
                                         : pcn::Direction::kBackward));
  const double normaliser =
      std::clamp(draining_side, floor_tokens, cap / 3.0);
  const double urgency = imbalance_tokens / normaliser;
  p.mu[0] = std::clamp(p.mu[0] + config_.eta * urgency, 0.0, config_.max_price);
  p.mu[1] = std::clamp(p.mu[1] - config_.eta * urgency, 0.0, config_.max_price);
  p.lambda *= config_.price_decay;
  p.mu[0] *= config_.price_decay;
  p.mu[1] *= config_.price_decay;
  p.arrived_tokens[0] = 0.0;
  p.arrived_tokens[1] = 0.0;
  // Mirror into the flat per-direction array read by probes and fee
  // schedules until the next tick (prices only change here). A write only
  // happens on a bitwise change, which stamps the memoization clock and
  // checks the sleeping pairs subscribed to this flat.
  for (int dir = 0; dir < 2; ++dir) {
    const std::size_t idx = 2 * c + dir;
    const double old_flat = price_flat_[idx];
    const double new_flat =
        channel_price(c, static_cast<pcn::Direction>(dir));
    if (new_flat == old_flat) continue;
    price_flat_[idx] = new_flat;
    if (full_recompute_) continue;
    flat_tick_[idx] = tick_;
    auto& subs = sleep_subs_[idx];
    if (subs.empty()) continue;
    // Pin-safety triggers. A min-pinned path stays pinned while its price
    // decays by at most price_decay per tick, so only a steeper drop needs
    // a wake (pure decay is covered by the precomputed wake tick; lambda
    // collapsing through its clamp, or an imbalance reversal, is not). A
    // max-pinned path stays pinned under any price decrease, so only an
    // increase needs a wake. The comparisons subsume every arrival-driven
    // (non-decay) effect, so no arrival hint is needed. The 1e-9 slack
    // absorbs last-bit rounding between this product and the decayed
    // price terms (a clamped-then-decayed lambda can land one ulp under
    // it); the wake-tick margin of 2% dwarfs the slack's accumulated
    // drift, so the pin bound still holds.
    const bool steep_drop =
        new_flat < old_flat * config_.price_decay * (1.0 - 1e-9);
    const bool rise = new_flat > old_flat;
    if (!steep_drop && !rise) continue;
    std::size_t keep = 0;
    for (const SleepSub& sub : subs) {
      PairState* ps = sub.pair;
      if (ps->awake || ps->sleep_epoch != sub.epoch) {
        continue;  // stale: drop
      }
      if ((sub.mask & kWakeOnDrop && steep_drop) ||
          (sub.mask & kWakeOnRise && rise)) {
        wake_pair(*ps);
        continue;  // consumed
      }
      subs[keep++] = sub;  // still armed for the other trigger
    }
    // SPLICER_LINT_ALLOW(hotpath-alloc): compaction shrink — keep <= size(),
    // so this resize never reallocates.
    subs.resize(keep);
  }
  return p.lambda != 0.0 || p.mu[0] != 0.0 || p.mu[1] != 0.0;
}

double RateRouterBase::channel_price(ChannelId channel, pcn::Direction d) const {
  const auto& p = prices_.at(channel);
  const auto di = pcn::dir_index(d);
  return std::max(0.0, 2.0 * p.lambda + p.mu[di] - p.mu[1 - di]);
}

double RateRouterBase::fee_rate(ChannelId channel, pcn::Direction d) const {
  return fee_from_price(channel_price(channel, d));
}

void RateRouterBase::probe_pairs(Engine& engine) {
  if (full_recompute_) {
    for (auto& [pair, state] : pairs_) probe_one_pair(engine, pair, state);
    return;
  }
  // Decay wake-ups due this tick. Each is re-validated against the fresh
  // flat prices: a pair whose probe is still a provable identity re-arms
  // under the same epoch (its subscriptions stay valid), the rest join
  // the sweep below. Pop order cannot reach the event stream — a woken
  // pair is probed by the key-ordered sweep like any other.
  while (!wake_heap_.empty() && wake_heap_.front().tick <= tick_) {
    std::pop_heap(wake_heap_.begin(), wake_heap_.end());
    const WakeEntry entry = wake_heap_.back();
    wake_heap_.pop_back();
    PairState* ps = entry.pair;
    if (ps->awake || ps->sleep_epoch != entry.epoch) continue;
    std::uint64_t rearm = 0;
    if (sleeping_probe_is_identity(*ps, rearm) && rearm != 0) {
      wake_heap_.push_back(WakeEntry{rearm, entry.key, entry.pair, entry.epoch});
      std::push_heap(wake_heap_.begin(), wake_heap_.end());
    } else {
      wake_pair(*ps);
    }
  }
  // Sweep the awake pairs in ascending key order — the full sweep's order
  // over the sorted map, restricted to pairs whose probe can differ from
  // an identity. Sleeping pairs have no demands and nothing outstanding,
  // so the full sweep would schedule no drips and count no probe messages
  // for them either: the drip events this sweep schedules are the
  // identical subsequence of the frozen event stream.
  const std::size_t swept = active_pairs_.size();
  if (swept > engine.metrics().active_pairs_peak) {
    engine.metrics().active_pairs_peak = swept;
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < swept; ++i) {
    PairState* ps = active_pairs_[i];
    if (!ps->awake) continue;  // defensive: pairs only sleep inside probes
    probe_one_pair(engine, ps->key, *ps);
    if (ps->awake) active_pairs_[kept++] = ps;
  }
  // SPLICER_LINT_ALLOW(hotpath-alloc): compaction shrink — kept <= size(),
  // so this resize never reallocates.
  active_pairs_.resize(kept);
}

void RateRouterBase::probe_one_pair(Engine& engine, const PairKey& pair,
                                    PairState& state) {
  // Probe messages are only sent on paths that carry or await traffic,
  // but the rate state always integrates the latest prices.
  bool active = !state.demands.empty();
  for (const auto& path : state.paths) active = active || path.outstanding > 0;
  const double total_rate = std::max(total_pair_rate(state), 1e-9);
  // Sleep candidate: an inactive pair whose every path's rate update is an
  // identity pinned at a clamp bound (incremental mode only). Interior
  // fixed points don't qualify — nothing guarantees the next tick is also
  // an identity.
  bool sleepable = !full_recompute_ && !active;
  bool has_min_pinned = false;
  double min_pinned_price = 0.0;
  for (auto& path : state.paths) {
    // Probe: sum xi along the full path (eq. 25) — flat-array reads in
    // the same hop order, so the sum is bit-identical to recomputing
    // each channel price in place. Memoized: when no hop's flat changed
    // bitwise since the cached sum was taken, re-summing would return
    // the identical double, so the cache is reused outright.
    double price;
    bool reuse =
        !full_recompute_ && path.price_tick != 0 && !path.hop_index.empty();
    // Hint first: a path through a hot channel keeps failing on the same
    // hop, so the common "changed" case costs one load instead of a scan.
    if (reuse && flat_tick_[path.hop_index[path.memo_hint]] > path.price_tick) {
      reuse = false;
    }
    if (reuse) {
      for (std::size_t h = 0; h < path.hop_index.size(); ++h) {
        if (flat_tick_[path.hop_index[h]] > path.price_tick) {
          path.memo_hint = static_cast<std::uint32_t>(h);
          reuse = false;
          break;
        }
      }
    }
    if (reuse) {
      price = path.price;
      ++engine.metrics().probe_sums_reused;
    } else {
      price = 0.0;
      for (const std::uint32_t idx : path.hop_index) price += price_flat_[idx];
      price *= (1.0 + config_.t_fee);
      path.price = price;
    }
    path.price_tick = tick_;
    if (active) engine.counters().probe_messages += path.full_path.edges.size();
    // Eq. (26): r_p += alpha (U'(r) - rho_p) with U = log.
    const double gradient = 1.0 / total_rate - price;
    const double next_rate =
        std::clamp(path.rate_tps + config_.alpha * gradient,
                   config_.min_rate_tps, config_.max_rate_tps);
    if (sleepable) {
      if (next_rate != path.rate_tps) {
        sleepable = false;
      } else if (path.rate_tps == config_.min_rate_tps) {
        if (!has_min_pinned || price < min_pinned_price) {
          min_pinned_price = price;
        }
        has_min_pinned = true;
      } else if (path.rate_tps != config_.max_rate_tps) {
        sleepable = false;  // interior identity
      }
    }
    path.rate_tps = next_rate;
    if (!state.demands.empty()) {
      schedule_drip(engine, pair, static_cast<std::size_t>(&path - state.paths.data()));
    }
  }
  if (!sleepable) return;
  // Hysteresis: a pair that just woke keeps probing for a while before it
  // may sleep again, so oscillation at a wake-trigger threshold (or steady
  // periodic traffic) cannot thrash the subscription lists — wake_pair
  // doubles the delay whenever a sleep is cut short. Awake pairs are
  // always result-correct; this only decides who pays sleep bookkeeping.
  if (state.last_wake_tick != 0 &&
      tick_ < state.last_wake_tick + state.resleep_delay) {
    return;
  }
  std::uint64_t wake_tick = 0;
  if (has_min_pinned) {
    const std::uint64_t ticks = decay_ticks_until_unpin(min_pinned_price, total_rate);
    if (ticks == 0) return;  // margin too thin — stay awake, probe next tick
    wake_tick = tick_ + ticks;
  }
  // Sleep. Hop subscriptions wake the pair on any flat change that could
  // break a pin; a previous sleep's subscriptions (same epoch — the pair
  // was last woken by a decay re-check that kept it asleep, or never) are
  // still armed and are not re-appended.
  state.awake = false;
  state.last_sleep_tick = tick_;
  if (state.subs_epoch != state.sleep_epoch) {
    for (const auto& path : state.paths) {
      const std::uint8_t mask =
          path.rate_tps == config_.min_rate_tps ? kWakeOnDrop : kWakeOnRise;
      for (const std::uint32_t idx : path.hop_index) {
        sleep_subs_[idx].push_back(SleepSub{&state, state.sleep_epoch, mask});
      }
    }
    state.subs_epoch = state.sleep_epoch;
  }
  if (wake_tick != 0) {
    wake_heap_.push_back(
        WakeEntry{wake_tick, pack_pair(pair), &state, state.sleep_epoch});
    std::push_heap(wake_heap_.begin(), wake_heap_.end());
  }
}

void RateRouterBase::wake_pair(PairState& state) {
  if (state.awake) return;
  state.awake = true;
  state.last_wake_tick = tick_;
  // Adaptive hysteresis: a sleep cut short means the sleep/wake
  // bookkeeping outweighed the skipped probes — back off exponentially.
  // A sleep that lasted earns the base delay back.
  if (tick_ < state.last_sleep_tick + 4 * state.resleep_delay) {
    state.resleep_delay = std::min(2 * state.resleep_delay,
                                   kMaxResleepDelayTicks);
  } else {
    state.resleep_delay = kResleepDelayTicks;
  }
  // Invalidates the pair's outstanding subscriptions and wake-heap
  // entries; they are dropped lazily wherever they are next inspected.
  ++state.sleep_epoch;
  const auto pos = std::lower_bound(
      active_pairs_.begin(), active_pairs_.end(), state.key,
      [](const PairState* p, const PairKey& key) { return p->key < key; });
  active_pairs_.insert(pos, &state);
}

bool RateRouterBase::sleeping_probe_is_identity(const PairState& state,
                                                std::uint64_t& rearm_tick) const {
  rearm_tick = 0;
  // A sleeping pair is inactive by construction — demand admission and TU
  // retries wake it eagerly — so only the rate identities need
  // re-checking, with the exact probe expressions.
  const double total_rate = std::max(total_pair_rate(state), 1e-9);
  bool has_min_pinned = false;
  double min_pinned_price = 0.0;
  for (const auto& path : state.paths) {
    double price = 0.0;
    for (const std::uint32_t idx : path.hop_index) price += price_flat_[idx];
    price *= (1.0 + config_.t_fee);
    const double gradient = 1.0 / total_rate - price;
    const double next_rate =
        std::clamp(path.rate_tps + config_.alpha * gradient,
                   config_.min_rate_tps, config_.max_rate_tps);
    if (next_rate != path.rate_tps) return false;
    if (path.rate_tps == config_.min_rate_tps) {
      if (!has_min_pinned || price < min_pinned_price) min_pinned_price = price;
      has_min_pinned = true;
    } else if (path.rate_tps != config_.max_rate_tps) {
      return false;
    }
  }
  if (has_min_pinned) {
    const std::uint64_t ticks = decay_ticks_until_unpin(min_pinned_price, total_rate);
    if (ticks == 0) return false;
    rearm_tick = tick_ + ticks;
  }
  return true;
}

std::uint64_t RateRouterBase::decay_ticks_until_unpin(double price,
                                                      double total_rate) const {
  // A min-pinned path's update stays an identity while price >= theta =
  // U'(total) = 1/total (the gradient then points below the clamp floor).
  // Between wakes every hop flat shrinks by at most the decay factor per
  // tick — steeper drops and any rise wake the pair through its
  // subscriptions — so price after k skipped ticks is >= price * decay^k
  // up to ~1e-12 of accumulated rounding drift. The 2% margin dwarfs that
  // drift: sleeping n ticks with price * decay^n >= 1.02 * theta can never
  // skip a tick whose update was not an identity.
  const double decay = config_.price_decay;
  if (!(decay > 0.0) || !(decay < 1.0)) return 0;
  const double theta = 1.0 / total_rate;
  if (!(price > 0.0) || !(theta > 0.0)) return 0;
  const double margin = 1.02 * theta;
  if (!(price > margin)) return 0;
  const double ticks = std::floor(std::log(price / margin) / -std::log(decay));
  if (!(ticks >= 2.0)) return 0;  // not worth the heap churn
  return static_cast<std::uint64_t>(std::min(ticks, 1.0e9));
}

std::vector<RateRouterBase::PathDiagnostics> RateRouterBase::pair_diagnostics(
    NodeId from, NodeId to) const {
  std::vector<PathDiagnostics> out;
  const auto it = pairs_.find(PairKey{from, to});
  if (it == pairs_.end()) return out;
  for (const auto& path : it->second.paths) {
    // The probe price is recomputed from the flat mirror instead of read
    // from the memo cache: identical bits when the cache is fresh (it was
    // summed from these exact flats) and current for pairs the incremental
    // sweep is holding asleep.
    double price = 0.0;
    for (const std::uint32_t idx : path.hop_index) price += price_flat_[idx];
    price *= (1.0 + config_.t_fee);
    out.push_back(PathDiagnostics{path.rate_tps, path.window, price,
                                  path.outstanding, path.full_path.edges.size()});
  }
  return out;
}

double RateRouterBase::total_pair_rate(const PairState& pair) const {
  double total = 0.0;
  for (const auto& path : pair.paths) total += path.rate_tps;
  return total;
}

const std::vector<Amount>& RateRouterBase::fee_schedule(
    const pcn::Network& network, const PathState& path, Amount value) const {
  // hop_amounts[i] = value + downstream fees; fees follow eq. (24) with the
  // current fee rates, charged on the forwarded amount, plus each hop
  // channel's hostile-world policy fee (base + proportional). The
  // precomputed hop_index avoids re-deriving each hop's direction per TU;
  // the flat price array yields the same fee_rate doubles bit for bit, and
  // an all-default policy adds exact zero to both terms.
  auto& amounts = fee_scratch_;
  // SPLICER_LINT_ALLOW(hotpath-alloc): per-router scratch — grows to the
  // longest path's hop count once, then every resize is within capacity.
  amounts.resize(path.hop_index.size());
  Amount carry = value;
  for (std::size_t i = path.hop_index.size(); i-- > 0;) {
    amounts[i] = carry;
    if (i == 0) break;
    const std::uint32_t idx = path.hop_index[i];
    const pcn::ChannelPolicy& policy =
        network.channel(static_cast<ChannelId>(idx / 2)).policy();
    const double rate =
        fee_from_price(price_flat_[idx]) + policy.fee_proportional;
    const auto fee = static_cast<Amount>(
        std::llround(rate * static_cast<double>(carry)));
    carry += std::max<Amount>(fee, 0) + std::max<Amount>(policy.fee_base, 0);
  }
  return amounts;
}

void RateRouterBase::schedule_drip(Engine& engine, const PairKey& pair,
                                   std::size_t path_index) {
  auto& state = pair_state(pair);
  auto& path = state.paths[path_index];
  if (path.drip_scheduled) return;
  if (engine.past_horizon()) return;
  path.drip_scheduled = true;
  const double delay =
      std::max(0.0, path.earliest_send(config_.min_rate_tps) - engine.now());
  // Typed drip timer (one per TU send on the hot path): POD fields in the
  // scheduler pool instead of a heap-allocated closure per drip.
  engine.schedule_timer(delay, pack_pair(pair), path_index);
}

void RateRouterBase::try_send(Engine& engine, const PairKey& pair,
                              std::size_t path_index) {
  auto& state = pair_state(pair);
  auto& path = state.paths[path_index];
  if (engine.past_horizon()) return;
  if (engine.now() + 1e-12 < path.earliest_send(config_.min_rate_tps)) {
    schedule_drip(engine, pair, path_index);  // pacing not yet satisfied
    return;
  }
  if (path.outstanding >= static_cast<std::size_t>(
                              std::max(1.0, std::floor(path.window)))) {
    return;  // window-bound; re-armed on delivery/failure
  }
  // Pop exhausted/inactive demands. Evicted states (resolved payments whose
  // PaymentState is already gone) count as inactive, exactly like a
  // still-resident resolved state.
  const PaymentState* front_state = nullptr;
  while (!state.demands.empty()) {
    const auto& front = state.demands.front();
    front_state = engine.find_payment_state(front.payment);
    if (front.remaining <= 0 || front_state == nullptr ||
        !front_state->active()) {
      state.demands.pop_front();
      continue;
    }
    break;
  }
  if (state.demands.empty()) return;
  // Hostile-world dispatch gate: the pair's path set is computed once, so a
  // mutation obstructing this path (closed channel, offline node, timelock
  // over budget) is discovered here, at send time, against current network
  // state — hold and retry like a funds-short admit; a reopened channel or
  // recovered node makes the path usable again with no path recompute.
  if (path_obstruction(engine.network(), path.full_path,
                       engine.config().hostile.timelock_budget)) {
    path.hold_until = std::max(path.hold_until, engine.now() + 0.05);
    schedule_drip(engine, pair, path_index);
    return;
  }
  auto& entry = state.demands.front();
  const auto& payment_state = *front_state;

  // TU sizing: Min-TU <= |d_i| <= Max-TU, avoiding a sub-Min-TU crumb.
  Amount tu_value;
  if (entry.remaining <= config_.max_tu) {
    tu_value = entry.remaining;
  } else if (entry.remaining - config_.max_tu < config_.min_tu) {
    tu_value = entry.remaining - config_.min_tu;
  } else {
    tu_value = config_.max_tu;
  }
  tu_value = std::max<Amount>(tu_value, 1);

  const auto& hop_amounts = fee_schedule(engine.network(), path, tu_value);
  if (!admit_tu(engine, path.full_path, hop_amounts)) {
    // Downstream funds are short (F_ab < |d_i|): hold at the source and
    // retry shortly instead of locking a doomed HTLC chain.
    path.hold_until = std::max(path.hold_until, engine.now() + 0.05);
    schedule_drip(engine, pair, path_index);
    return;
  }

  TransactionUnit tu;
  tu.payment = entry.payment;
  tu.value = tu_value;
  tu.path = path.full_path;
  tu.hop_amounts = hop_amounts;  // the TU owns its schedule; scratch is reused
  tu.deadline = payment_state.payment.deadline;
  tu.path_index = path_index;
  entry.remaining -= tu_value;
  ++path.outstanding;
  engine.send_tu(std::move(tu));

  path.last_send = engine.now();
  path.last_tu_tokens = common::to_tokens(tu_value);
  schedule_drip(engine, pair, path_index);
}

void RateRouterBase::on_tu_delivered(Engine& engine, const TransactionUnit& tu) {
  const auto it = pair_of_payment_.find(tu.payment);
  if (it == pair_of_payment_.end()) return;
  auto& state = pair_state(it->second);
  auto& path = state.paths[tu.path_index];
  if (path.outstanding > 0) --path.outstanding;
  // Eq. (28): window grows by gamma / sum of the pair's windows.
  double window_sum = 0.0;
  for (const auto& p : state.paths) window_sum += p.window;
  path.window = std::clamp(path.window + config_.gamma / std::max(window_sum, 1e-9),
                           config_.min_window, config_.max_window);
  schedule_drip(engine, it->second, tu.path_index);
}

void RateRouterBase::on_tu_failed(Engine& engine, const TransactionUnit& tu,
                                  FailReason reason) {
  const auto it = pair_of_payment_.find(tu.payment);
  if (it == pair_of_payment_.end()) return;
  const PairKey pair = it->second;
  auto& state = pair_state(pair);
  auto& path = state.paths[tu.path_index];
  if (path.outstanding > 0) --path.outstanding;
  if (reason == FailReason::kMarkedCongested ||
      reason == FailReason::kQueueOverflow) {
    // Eq. (27): the aborted TU shrinks the window by beta.
    path.window = std::clamp(path.window - config_.beta, config_.min_window,
                             config_.max_window);
  }
  // Unserved value is retried (front of the queue) while the deadline holds.
  const auto* payment_state = engine.find_payment_state(tu.payment);
  if (payment_state != nullptr && payment_state->active() &&
      engine.now() < payment_state->payment.deadline) {
    wake_pair(state);  // the retried demand re-activates the pair
    state.demands.push_front(DemandEntry{tu.payment, tu.value});
  }
  for (std::size_t i = 0; i < state.paths.size(); ++i) {
    schedule_drip(engine, pair, i);
  }
}

void RateRouterBase::on_payment_resolved(Engine& engine, PaymentId payment) {
  (void)engine;
  // Quiescent: no TU of this payment can ever reach on_tu_delivered /
  // on_tu_failed again (both tolerate the missing entry regardless), so the
  // pair lookup entry is dead weight from here on. The pair itself stays —
  // its paths, rates and windows are shared by every payment of the pair.
  pair_of_payment_.erase(payment);
}

void RateRouterBase::on_tu_forwarded(Engine& engine, const TransactionUnit& tu,
                                     ChannelId channel, pcn::Direction direction) {
  (void)engine;
  // m_a accumulation for eq. (22): value arriving into this direction.
  prices_.at(channel).arrived_tokens[pcn::dir_index(direction)] +=
      common::to_tokens(tu.hop_amounts[tu.next_hop]);
  activate_channel(channel);  // arrivals make the next price update non-trivial
}

}  // namespace splicer::routing
