#pragma once

// Discrete-event execution engine for PCN routing schemes.
//
// Mechanics implemented here, identically for every router:
//  * hop-by-hop HTLC forwarding: lock on each channel direction, propagate
//    after the hop delay, settle backwards along the path on delivery,
//    refund backwards on failure (funds conservation is exact);
//  * per-direction processing-rate limits (r_process) and bounded waiting
//    queues with pluggable scheduling (FIFO/LIFO/SPF/EDF, Table II);
//  * congestion marking: a TU queued longer than the threshold T is marked
//    and aborted (paper SS IV-D congestion control);
//  * payment deadlines (transaction timeout, 3 s in the paper) and the
//    all-or-nothing completion rule (the destination hub releases funds to
//    the recipient only once every TU arrived);
//  * metrics: TSR, normalised throughput, delays, message counters.

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/dense_id_map.h"
#include "common/rng.h"
#include "common/stats.h"
#include "pcn/network.h"
#include "pcn/scenario_mutator.h"
#include "pcn/traffic_source.h"
#include "pcn/workload.h"
#include "routing/router.h"
#include "sim/counters.h"
#include "sim/engine_event.h"
#include "sim/scheduler.h"

namespace splicer::routing {

struct EngineConfig {
  double hop_delay_s = 0.005;             // per-channel propagation delay
  double queue_delay_threshold_s = 0.4;   // T (paper: 400 ms)
  Amount queue_capacity = common::whole_tokens(8000);  // q_amount bound
  SchedulingPolicy policy = SchedulingPolicy::kLifo;   // paper's default
  double process_rate_tokens_per_s = 4000.0;           // r_process per direction
  bool queues_enabled = true;   // false = atomic HTLC (fail on first shortage)
  double horizon_slack_s = 5.0; // keep simulating past the last deadline
  std::uint64_t seed = 1;
  /// Batched settlement epoch. 0 (default) keeps the exact per-hop
  /// behaviour: every settle/refund of every TU hop is its own scheduler
  /// event (byte-identical to the pre-batching engine). When > 0, settle
  /// and refund contributions accumulate per (channel, direction) and are
  /// applied in bulk on the next multiple of `settlement_epoch_s` — one
  /// flush event per active epoch instead of one event per hop.
  double settlement_epoch_s = 0.0;
  /// Debug: after every queue mutation, re-derive each touched queue's
  /// value from its entries and throw on any drift (invariant test suite).
  bool validate_queues = false;
  /// Hostile-world scenario pack: fault injection, channel churn, per-edge
  /// fee/timelock policies (see pcn/scenario_mutator.h). All rates default
  /// to 0, in which case no mutator is built, no mutation event is ever
  /// scheduled and no RNG draw happens — the benign event stream is
  /// byte-identical to an engine without this field (CI-gated). Mutation
  /// randomness derives from hostile.seed, never from `seed`, so the
  /// stream does not depend on the engine's RNG draws.
  pcn::HostileConfig hostile;
};

struct EngineMetrics {
  std::size_t payments_generated = 0;
  std::size_t payments_completed = 0;
  std::size_t payments_failed = 0;
  Amount value_generated = 0;
  Amount value_completed = 0;
  std::uint64_t tus_sent = 0;
  std::uint64_t tus_delivered = 0;
  std::uint64_t tus_failed = 0;
  std::uint64_t tus_marked = 0;
  /// TU failures by FailReason (indexed by the enum's underlying value).
  std::array<std::uint64_t, kFailReasonCount> tu_fail_reasons{};
  /// Payment failures by FailReason.
  std::array<std::uint64_t, kFailReasonCount> payment_fail_reasons{};
  sim::MessageCounters messages;
  double simulated_seconds = 0.0;
  /// Scheduler events executed by run() (the batching cost signal).
  std::uint64_t scheduler_events = 0;
  /// Epoch flush events executed (0 when settlement_epoch_s == 0).
  std::uint64_t settlement_flushes = 0;
  /// Individual settle/refund operations coalesced into flush events.
  std::uint64_t settlements_batched = 0;
  /// Peak number of payments simultaneously resident in the arrival
  /// pipeline: pulled from the traffic source but not yet arrived, plus
  /// arrived but not yet completed/failed. The engine pulls lazily (one
  /// look-ahead payment), so this stays at the workload's concurrency
  /// level rather than its total size - the streaming-scale signal.
  std::size_t peak_payment_buffer = 0;
  /// Peak number of PaymentStates simultaneously resident. Resolved
  /// states are evicted once unreferenced, so this stays at the
  /// concurrency level, not the payment count.
  std::size_t peak_resident_states = 0;
  /// Resolved PaymentStates evicted (every payment, by the end of a run).
  std::uint64_t states_evicted = 0;
  /// Streaming per-run accumulators, folded at resolution time so no
  /// metric ever needs a post-hoc scan over payment states (resolved
  /// states are long gone by the end of the run).
  common::RunningStats completion_delay_stats;  // seconds, completed payments
  common::RunningStats tus_per_payment_stats;   // TUs launched per resolved payment
  /// Value delivered by payments that nonetheless failed (partial
  /// deliveries observed at resolution time).
  Amount failed_delivered_value = 0;
  /// Always 0. The rate-control tick is one full sweep per tau, so no
  /// price update is skipped, no probe sum is reused and no pair sleeps.
  /// Kept only because the repository benchmark (perfbench/) still reads
  /// these three fields; delete them together with its
  /// `routing.rate.*` counters. Nothing in src/ writes them.
  std::uint64_t price_updates_skipped = 0;
  /// Always 0; kept for perfbench/ (see price_updates_skipped).
  std::uint64_t probe_sums_reused = 0;
  /// Always 0; kept for perfbench/ (see price_updates_skipped).
  std::size_t active_pairs_peak = 0;
  /// Hostile-world mutation events applied (0 in a benign run).
  std::uint64_t mutation_events = 0;
  /// Deadlock witnesses, stamped by finish_run() before the conservation
  /// check: TUs still resident in the live slab and value still sitting in
  /// waiting queues when the run ended. Both must be 0 for every scheme
  /// even under churn storms — a nonzero value is a wedged liquidity cycle
  /// (the deadlock-under-churn stress gate asserts this).
  std::size_t resident_tus_at_end = 0;
  Amount wedged_queue_value = 0;

  /// Transaction success ratio: completed / generated payments.
  [[nodiscard]] double tsr() const {
    return payments_generated
               ? static_cast<double>(payments_completed) /
                     static_cast<double>(payments_generated)
               : 0.0;
  }
  /// Completed value over generated value (normalised throughput).
  [[nodiscard]] double normalized_throughput() const {
    return value_generated > 0 ? static_cast<double>(value_completed) /
                                     static_cast<double>(value_generated)
                               : 0.0;
  }
  /// Mean completion delay, derived from the streamed accumulator (the
  /// exact sum-over-count of the legacy running total, bit for bit).
  [[nodiscard]] double average_delay_s() const {
    return payments_completed ? completion_delay_stats.sum() /
                                    static_cast<double>(payments_completed)
                              : 0.0;
  }
};

/// Per-payment progress (router-visible). A resolved state is evicted as
/// soon as the last engine-side reference is gone (no live TU, no queue
/// entry, no pending deadline event, no epoch buffer), so an unbounded run
/// holds O(concurrency) states. Routers must reach it through
/// Engine::find_payment_state() from any context that can outlive
/// resolution (deferred timers, demand queues, recurring ticks).
struct PaymentState {
  pcn::Payment payment;
  Amount delivered = 0;     // settled at destination
  Amount in_flight = 0;     // dispatched, not yet settled/failed
  bool completed = false;
  bool failed = false;
  double completion_time = 0.0;
  /// Engine-owned TUs of this payment still alive (in flight, queued, or
  /// awaiting their ack-chain release event). The eviction gate.
  std::uint32_t live_tus = 0;
  /// Total TUs ever launched for this payment (the retry signal folded
  /// into EngineMetrics::tus_per_payment_stats at resolution).
  std::uint32_t tus_launched = 0;
  /// The deadline event has not fired/been cancelled yet. Per-hop mode
  /// lets resolved payments' deadline events fire as no-ops (keeping the
  /// epoch-0 event stream byte-identical), so eviction must wait for them.
  bool deadline_pending = false;
  /// The pending deadline event (valid while deadline_pending). Batched
  /// mode cancels it on resolution; stored inline so no side map is needed.
  sim::Scheduler::EventId deadline_event = 0;

  [[nodiscard]] Amount remaining_to_dispatch() const noexcept {
    return payment.value - delivered - in_flight;
  }
  [[nodiscard]] bool active() const noexcept { return !completed && !failed; }
};

class Engine : private sim::EventSink {
 public:
  /// Streams payments lazily out of `source`: the next arrival event is
  /// scheduled only when the previous one fires, so the engine never holds
  /// more than one unarrived payment regardless of workload size.
  Engine(pcn::Network network, std::unique_ptr<pcn::TrafficSource> source,
         Router& router, EngineConfig config = {});

  /// Compatibility: replays a pre-built vector (wrapped in a VectorSource).
  Engine(pcn::Network network, std::vector<pcn::Payment> payments,
         Router& router, EngineConfig config = {});

  /// Runs the whole simulation; single call. Equivalent to begin_run(),
  /// a run_window() loop bounded by the deadline-driven hard stop, then
  /// finish_run() — callers that step the clock themselves (micro-benches)
  /// drive those pieces directly.
  EngineMetrics run();

  /// Router on_start + first lazy source pull (the opening of run()).
  void begin_run();

  /// Advances the local scheduler to `until` (inclusive); returns events
  /// executed (also folded into metrics().scheduler_events).
  std::size_t run_window(double until);

  /// Closing bookkeeping of run(): stamps simulated_seconds, applies any
  /// residual batched settlements, checks funds conservation.
  void finish_run();

  // ---- Router-facing API ----------------------------------------------
  [[nodiscard]] double now() const noexcept { return scheduler_.now(); }
  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] common::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] pcn::Network& network() noexcept { return network_; }
  [[nodiscard]] const pcn::Network& network() const noexcept { return network_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::MessageCounters& counters() noexcept { return metrics_.messages; }
  [[nodiscard]] EngineMetrics& metrics() noexcept { return metrics_; }

  /// Dispatches a TU (path and hop_amounts must be populated; next_hop 0).
  /// Returns the TU id. The engine owns the TU from here on and reports
  /// back through Router::on_tu_delivered / on_tu_failed.
  TuId send_tu(TransactionUnit tu);

  /// Strict lookup: throws on an unknown (or evicted) payment. Safe from
  /// any context holding a live TU of the payment — the TU pins the state.
  [[nodiscard]] PaymentState& payment_state(PaymentId id);

  /// Checked lookup that tolerates eviction: nullptr when the payment is
  /// unknown or its resolved state has been evicted (treat as inactive).
  [[nodiscard]] PaymentState* find_payment_state(PaymentId id) noexcept {
    return states_.find(id);
  }

  /// Arms a router timer `delay` seconds from now: fires back through
  /// Router::on_timer with (a, b) verbatim. A typed pooled event and the
  /// one way a router schedules work, from per-TU drips to recurring ticks
  /// (a tick re-arms itself from on_timer).
  sim::Scheduler::EventId schedule_timer(double delay, std::uint64_t a,
                                         std::uint64_t b = 0) {
    return scheduler_.after(
        delay, sim::EngineEvent{.kind = sim::EngineEvent::Kind::kRouterTimer,
                                .channel = 0,
                                .aux = 0,
                                .a = a,
                                .b = b});
  }

  /// Grace period past the workload horizon during which recurring router
  /// events (price ticks, probes, hub sync, send drips) keep running, so
  /// the tail payments can still complete. One named constant shared by
  /// every cutoff site so a grace change can never leave them divergent.
  static constexpr double kHorizonGraceS = 0.5;

  /// True once the simulation clock has passed the workload horizon plus
  /// the grace period — recurring router events should stop re-arming.
  [[nodiscard]] bool past_horizon() const noexcept {
    return now() > workload_horizon() + kHorizonGraceS;
  }

  /// Upper bound on the last payment deadline: exact once the source is
  /// drained (and from the start for replay sources, whose hint is exact);
  /// before that, the larger of the source's hint and the deadlines seen so
  /// far. Routers bound their recurring price/probe ticks with this instead
  /// of scanning a materialised payment vector.
  [[nodiscard]] double workload_horizon() const noexcept {
    return source_horizon_ > last_deadline_seen_ ? source_horizon_
                                                 : last_deadline_seen_;
  }

  /// Quantised arrival-bucket key (nanosecond grid): same-instant hop
  /// arrivals must coalesce on an integer key, never on a raw double (two
  /// doubles that print alike can differ in the last bit and silently
  /// split a bucket). Public so tests can pin the quantisation contract.
  [[nodiscard]] static std::int64_t arrival_tick(double when) noexcept;

  /// Marks the payment failed (router decision, e.g., no path exists).
  void fail_payment(PaymentId id, FailReason reason);

  /// Queue depth in value for a directed channel (router congestion input).
  [[nodiscard]] Amount queue_amount(ChannelId channel, pcn::Direction d) const;

 private:
  struct LiveTu {
    TransactionUnit tu;
    std::vector<char> hop_locked;  // which path edges currently hold a lock
    /// deliver()/fail_tu() ran: in per-hop mode the entry outlives its
    /// resolution until the ack-chain kReleaseTu fires, and the channel-
    /// close sweep (and any late kMark) must not fail it a second time.
    bool resolved = false;
  };
  struct QueuedTu {
    TuId id;
    double enqueued_at;
    Amount amount;  // hop amount charged against queued_value at enqueue
    sim::Scheduler::EventId mark_event;
  };
  struct DirectedState {
    std::deque<QueuedTu> queue;
    Amount queued_value = 0;
    double next_free = 0.0;     // processing-rate token bucket
    bool drain_pending = false; // a drain wake-up is already scheduled
  };
  /// Per-epoch settle/refund totals for one channel direction, applied in
  /// bulk at the next settlement_epoch_s boundary.
  struct PendingSettlement {
    Amount settle_total = 0;
    Amount refund_total = 0;
    std::uint64_t settle_ops = 0;
    std::uint64_t refund_ops = 0;
  };
  /// Epoch buffer for batched settlement: pending totals per directed
  /// channel plus the dirty set, drained by one flush event per epoch. The
  /// same flush also wakes rate-blocked queues and deferred atomic-mode
  /// TUs, so one recurring event replaces per-direction and per-TU wake-ups.
  struct SettlementBatcher {
    std::vector<PendingSettlement> pending;  // index: 2*channel + dir
    std::vector<std::size_t> dirty;          // indices with nonzero pending
    std::vector<std::size_t> blocked_queues; // rate-blocked directed indices
    std::vector<TuId> deferred_tus;          // atomic TUs waiting on r_process
    bool flush_scheduled = false;
  };

  // Typed-event dispatch: every hot-path scheduler event lands here as a
  // tagged POD (see sim/engine_event.h) instead of a per-event closure.
  void handle_event(const sim::EngineEvent& event) override;

  // Mechanics.
  /// Pulls the next payment from the source (if any) and schedules its
  /// arrival event; called once at start-up and then from each arrival.
  void schedule_next_arrival();
  void on_arrival(const pcn::Payment& payment);
  void note_buffer_peak() noexcept;
  void attempt_hop(TuId id);
  /// Schedules arrive_next after the hop delay. Batched mode coalesces
  /// same-instant arrivals (common: a flush forwards many TUs at one
  /// boundary) into a single shared scheduler event.
  void schedule_hop_arrival(TuId id);
  void arrive_next(TuId id);
  void deliver(TuId id);
  void fail_tu(TuId id, FailReason reason);
  void settle_backwards(TuId id);
  void refund_backwards(TuId id, FailReason reason);
  void enqueue(TuId id, ChannelId channel, pcn::Direction d);
  void drain_queue(ChannelId channel, pcn::Direction d);
  /// Schedules one drain wake-up at `when` unless one is already pending
  /// for this direction (duplicate wake-ups flood the scheduler).
  void schedule_drain(ChannelId channel, pcn::Direction d, double when);
  std::size_t pick_from_queue(const DirectedState& state) const;
  void on_payment_deadline(PaymentId id);

  // Payment lifetime.
  /// Folds the payment's final outcome (latency, TU count, partial value)
  /// into the streaming accumulators. Called exactly once, at resolution.
  void fold_resolution(const PaymentState& state);
  /// Erases the live TU entry, drops its payment's live_tus pin and evicts
  /// the state when that was the last reference. Replaces every direct
  /// live_.erase() at TU release sites.
  void release_live_tu(TuId id);
  /// Notifies the router and evicts the payment's state iff the payment
  /// is resolved and nothing (live TU, deadline event) references it.
  void maybe_evict(PaymentId id);

  // Batched settlement (settlement_epoch_s > 0).
  void add_pending(ChannelId channel, pcn::Direction d, Amount amount,
                   bool is_settle);
  /// Folds every still-locked hop of a resolved TU into the epoch buffer
  /// (settle on delivery, refund on failure).
  void add_pending_locked_hops(const LiveTu& live, bool is_settle);
  void schedule_flush();
  /// Cancels the payment's pending deadline event (batched mode only; the
  /// payment must still be unresolved, i.e. the event has not fired).
  void cancel_deadline_event(PaymentId id);
  /// Applies every pending settle/refund total, then (if `drain`) retries
  /// the queues whose funds changed.
  void flush_settlements(bool drain);

  /// validate_queues hook: recomputes the queue's value from its entries.
  void check_queue_invariant(ChannelId channel, pcn::Direction d) const;

  // Hostile-world mutation plumbing (inert unless config_.hostile enables
  // a mutator). The engine replays the merged mutator streams through its
  // own scheduler, one staged kMutation event at a time (the arrival
  // pattern): equal-timestamp events across mutators fire in ascending
  // mutator index order.
  /// Builds the mutators and stages each one's first event (begin_run).
  void init_mutators();
  /// Schedules one kMutation event for the earliest staged event, if any.
  void schedule_next_mutation();
  /// Applies one mutation. Down/close depth counters make overlapping
  /// faults on one target idempotent: only 0 <-> 1 transitions flip flags.
  void apply_mutation(const pcn::MutationEvent& event);
  /// Close side effects: fail both waiting queues (kChannelClosed, mark
  /// events cancelled) and refund every unresolved in-flight TU holding a
  /// lock on the channel.
  void on_channel_close(ChannelId channel);

  // Directed-channel index scheme shared by directed_ and the batcher.
  [[nodiscard]] static constexpr std::size_t directed_index(
      ChannelId channel, pcn::Direction d) noexcept {
    return 2 * channel + pcn::dir_index(d);
  }
  [[nodiscard]] static constexpr ChannelId channel_of(std::size_t idx) noexcept {
    return static_cast<ChannelId>(idx / 2);
  }
  [[nodiscard]] static constexpr pcn::Direction direction_of(
      std::size_t idx) noexcept {
    return static_cast<pcn::Direction>(idx % 2);
  }

  [[nodiscard]] DirectedState& directed(ChannelId channel, pcn::Direction d) {
    return directed_[directed_index(channel, d)];
  }
  [[nodiscard]] const DirectedState& directed(ChannelId channel,
                                              pcn::Direction d) const {
    return directed_[directed_index(channel, d)];
  }

  pcn::Network network_;
  std::unique_ptr<pcn::TrafficSource> source_;
  Router& router_;
  EngineConfig config_;
  sim::Scheduler scheduler_;
  common::Rng rng_;
  EngineMetrics metrics_;

  // Streaming-arrival state.
  double source_horizon_ = 0.0;      // source->horizon_hint() at start
  double last_arrival_time_ = 0.0;   // monotonicity guard
  double last_deadline_seen_ = 0.0;  // grows as payments are pulled
  std::size_t pending_arrivals_ = 0; // pulled but not yet arrived (<= 1)
  std::size_t active_payments_ = 0;  // arrived, not yet resolved
  // The one pulled-but-not-arrived payment (pending_arrivals_ <= 1); its
  // kArrival event carries no payload, it just claims this slot.
  std::optional<pcn::Payment> staged_arrival_;

  // Slab stores exploiting that PaymentId/TuId are dense sequential ids:
  // hot-path lookups are a subtraction and a masked index instead of a
  // hash-map probe. Eviction (PR 4) frees the slot back into the window.
  common::DenseIdMap<PaymentState> states_;
  common::DenseIdMap<LiveTu> live_;
  std::vector<DirectedState> directed_;
  SettlementBatcher batcher_;
  // Hostile-world mutation state: the mutator streams, one staged event
  // per mutator, and per-target depth counters for overlapping faults.
  // Empty/unused in a benign run. Written only by the engine's mutation
  // plumbing (splicer_lint writer-lanes owns these names).
  std::vector<std::unique_ptr<pcn::ScenarioMutator>> mutators_;
  std::vector<std::optional<pcn::MutationEvent>> staged_mutations_;
  std::vector<std::uint32_t> node_down_depth_;
  std::vector<std::uint32_t> channel_close_depth_;
  // Batched mode: TUs arriving at the same instant share one event, keyed
  // by the tick-quantised arrival time (never by a raw double).
  // SPLICER_LINT_ALLOW(unordered-decl): keyed try_emplace/extract only; the
  // firing order of buckets comes from the scheduler heap, and TUs within a
  // bucket keep their deterministic insertion order in the vector.
  std::unordered_map<std::int64_t, std::vector<TuId>> arrival_buckets_;
  TuId next_tu_id_ = 1;
  Amount initial_funds_ = 0;

  // Guard: on_tu_forwarded receives a reference into the live_ slab, which
  // send_tu can relocate — dispatching from that hook is a hard error, not
  // silent UB (see Router::on_tu_forwarded's contract).
  bool in_forward_hook_ = false;
};

}  // namespace splicer::routing
