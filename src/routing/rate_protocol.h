#pragma once

// Rate-based multi-path routing machinery (paper SS IV-D, Alg. 2), shared
// by SplicerRouter (hub mode) and SpiderRouter (source-routing mode):
//
//  * per-channel capacity price   lambda_ab += kappa (n_a + n_b - c_ab)   (21)
//  * per-direction imbalance price mu_ab    += eta   (m_a - m_b)          (22)
//  * routing price                xi_ab      = 2 lambda + mu_ab - mu_ba   (23)
//  * forwarding fee               fee_ab     = T_fee * xi_ab              (24)
//  * path price                   rho_p      = (1+T_fee) sum xi           (25)
//  * rate update                  r_p       += alpha (U'(r) - rho_p)      (26)
//  * window update on abort/success                                  (27)/(28)
//
// Demands are split into TUs of value in [Min-TU, Max-TU] and dripped onto
// k paths at the per-path rates; windows bound outstanding TUs per path.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/disjoint_paths.h"
#include "routing/engine.h"
#include "routing/router.h"

namespace splicer::routing {

struct RateProtocolConfig {
  double tau_s = 0.2;          // price/probe update interval (Fig. 7(c) sweep)
  // Price steps act on the *capacity-relative* excess/imbalance: the same
  // absolute deficit is urgent on a 20-token channel and negligible on a
  // 60k-token trunk, and the channel's drain time is exactly what the
  // balance constraint protects. Calibrated so a flow that would drain its
  // channel within ~10 update periods gets priced past U'(r) before the
  // buffer empties - which is what makes the protocol deadlock-free in
  // practice.
  double kappa = 2.0;          // capacity price step (per relative excess)
  double eta = 0.4;            // imbalance price step (per relative imbalance)
  double alpha = 200.0;        // rate step
  /// Leaky-integrator factor applied to lambda/mu each update. Eq. (21)/(22)
  /// freeze when traffic stops entirely (m_a = m_b = 0); the mild decay lets
  /// throttled paths recover - a standard stabiliser for integral
  /// controllers (documented deviation, see DESIGN.md).
  double price_decay = 0.99;
  /// Ceiling on lambda and mu. Any price above ~U'(min_rate) already pins
  /// the rate to its floor; letting the integrator wind far past that only
  /// delays recovery (anti-windup clamp).
  double max_price = 4.0;
  double t_fee = 0.1;          // fee threshold parameter (0 < T_fee < 1)
  double delta_rtt_s = 0.2;    // Delta: expected lock duration per TU
  Amount min_tu = common::whole_tokens(1);  // paper: 1 token
  Amount max_tu = common::whole_tokens(4);  // paper: 4 tokens
  std::size_t k_paths = 5;                  // paper: 5
  graph::PathType path_type = graph::PathType::kEdgeDisjointWidest;
  double initial_rate_tps = 300.0;  // tokens/sec per path
  double min_rate_tps = 0.5;
  double max_rate_tps = 20000.0;
  double initial_window = 16.0;     // TUs outstanding per path
  double min_window = 1.0;
  double max_window = 500.0;
  double beta = 10.0;               // window decrease factor (paper: 10)
  double gamma = 0.1;               // window increase factor (paper: 0.1)
  double fee_rate_cap = 0.05;       // sanity cap on per-hop fee rate
  /// Source-side admission (Alg. 2 line 10): hold a TU at its smooth node
  /// while a downstream hop lacks funds. Only effective for routers with a
  /// global view (Splicer); disabling it shifts congestion handling onto
  /// the in-network waiting queues (Table II scheduling rows, ablations).
  bool source_gating = true;
};

/// Base router implementing the full rate/window protocol. Subclasses bind
/// it to a concrete topology role by implementing the virtuals.
class RateRouterBase : public Router {
 public:
  explicit RateRouterBase(RateProtocolConfig config) : config_(config) {}

  void on_start(Engine& engine) override;
  void on_payment(Engine& engine, const pcn::Payment& payment) override;
  void on_tu_delivered(Engine& engine, const TransactionUnit& tu) override;
  void on_tu_failed(Engine& engine, const TransactionUnit& tu,
                    FailReason reason) override;
  void on_tu_forwarded(Engine& engine, const TransactionUnit& tu,
                       ChannelId channel, pcn::Direction direction) override;
  void on_payment_resolved(Engine& engine, PaymentId payment) override;
  void on_timer(Engine& engine, std::uint64_t a, std::uint64_t b) override;

  // Typed timer dispatch (Engine::schedule_timer): drip timers pack the
  // pair endpoints into `a` and the path index into `b`; the other timers
  // carry one of these reserved `b` tags. Path counts are tiny (k paths per
  // pair), so a tag can never collide with a path index.
  /// Deferred admit; `a` = payment id.
  static constexpr std::uint64_t kAdmitTimer = ~std::uint64_t{0};
  /// Recurring tau price/probe tick; `a` unused.
  static constexpr std::uint64_t kPriceTickTimer = kAdmitTimer - 1;
  /// Recurring hub epoch sync (SplicerRouter); `a` unused.
  static constexpr std::uint64_t kSyncTickTimer = kAdmitTimer - 2;

  [[nodiscard]] const RateProtocolConfig& protocol_config() const noexcept {
    return config_;
  }

  /// Payments still holding a pair_of_payment_ entry (tests: the
  /// on_payment_resolved hook must leave this at 0 after a full run).
  [[nodiscard]] std::size_t tracked_payments() const noexcept {
    return pair_of_payment_.size();
  }

  /// Current routing price xi of a directed channel (tests/diagnostics).
  [[nodiscard]] double channel_price(ChannelId channel, pcn::Direction d) const;
  /// Current fee rate (eq. 24) of a directed channel.
  [[nodiscard]] double fee_rate(ChannelId channel, pcn::Direction d) const;

  /// Per-path protocol state of a pair (tests/diagnostics); empty if the
  /// pair has never been admitted.
  struct PathDiagnostics {
    double rate_tps = 0.0;
    double window = 0.0;
    double price = 0.0;
    std::size_t outstanding = 0;
    std::size_t hops = 0;
  };
  [[nodiscard]] std::vector<PathDiagnostics> pair_diagnostics(NodeId from,
                                                              NodeId to) const;

  /// One price-update + probe round, exactly as the recurring tau timer
  /// runs it. Public for the rate-tick microbenchmark, which drives ticks
  /// directly at controlled dirty-channel fractions; simulations never
  /// call this.
  void run_protocol_tick(Engine& engine);

 protected:
  /// Throws std::invalid_argument unless a recurring tick's `period` is
  /// finite and > 0: any other period re-arms the tick at the same instant
  /// (or never advances the clock) and the run never ends.
  static void require_tick_period(double period, const char* what);

  /// Endpoints between which the k-path set is computed. For Splicer these
  /// are the two hubs; for Spider the sender/receiver themselves.
  struct PairKey {
    NodeId from;
    NodeId to;
    auto operator<=>(const PairKey&) const = default;
  };
  [[nodiscard]] virtual PairKey pair_of(const Engine& engine,
                                        const pcn::Payment& payment) const = 0;

  /// Wraps a pair-level path into the full client-to-client path (Splicer
  /// prepends/appends the client spokes; Spider returns it unchanged).
  /// Called once per pair at path-set creation; probes, fees and TUs all
  /// use the full path.
  [[nodiscard]] virtual std::optional<graph::Path> assemble_path(
      Engine& engine, NodeId from, NodeId to, const graph::Path& pair_path)
      const = 0;

  /// Seconds of routing-decision latency before the payment's demand is
  /// admitted (models end-host route computation for Spider; ~0 for hubs).
  [[nodiscard]] virtual double decision_delay(Engine& engine,
                                              const pcn::Payment& payment) {
    (void)engine;
    (void)payment;
    return 0.0;
  }

  /// Computes the k pair-level paths. Default: select_paths on the engine
  /// topology with the configured path type.
  [[nodiscard]] virtual std::vector<graph::Path> compute_pair_paths(
      Engine& engine, const PairKey& pair) const;

  /// Source-side admission (paper Alg. 2 line 10, F_ab < |d_i|): whether a
  /// TU with these hop amounts may be dispatched now. Splicer's smooth
  /// nodes see (epoch-synchronised) global state and hold the TU at the
  /// source when a downstream channel lacks funds; source-routing senders
  /// (Spider) have no such view and always dispatch.
  [[nodiscard]] virtual bool admit_tu(Engine& engine, const graph::Path& path,
                                      const std::vector<Amount>& hop_amounts) {
    (void)engine;
    (void)path;
    (void)hop_amounts;
    return true;
  }

 private:
  struct ChannelPrices {
    double lambda = 0.0;
    double mu[2] = {0.0, 0.0};
    double arrived_tokens[2] = {0.0, 0.0};  // m_a / m_b this window
  };
  struct PathState {
    graph::Path full_path;    // client -> ... -> client, ready to send on
    /// Directed-channel index (2*channel + direction) of every path edge,
    /// precomputed once at path creation: probes and fee schedules read the
    /// flat per-tick price array instead of re-deriving the direction and
    /// chasing the channel record on every visit.
    std::vector<std::uint32_t> hop_index;
    double rate_tps = 0.0;
    double window = 0.0;
    double price = 0.0;       // rho_p from the latest probe
    std::size_t outstanding = 0;
    // Pacing state: the earliest next send is last_send +
    // last_tu_tokens / *current* rate, re-evaluated at drip time so a
    // recovered rate takes effect immediately.
    double last_send = -1e9;
    double last_tu_tokens = 0.0;
    double hold_until = 0.0;  // source-gating backoff
    bool drip_scheduled = false;
    /// Tick at which `price` was last computed (0 = never). The cached sum
    /// is reusable while no hop's flat price changed bitwise after that
    /// tick (flat_tick_); reuse returns the identical double, so probes
    /// stay bit-identical to an unconditional re-sum.
    std::uint64_t price_tick = 0;
    /// Position (into hop_index) of the hop that last broke memo reuse,
    /// checked first on the next probe: a path crossing a hot channel
    /// fails its memo check in one load instead of re-scanning every
    /// hop's change tick alongside the re-sum it can't avoid anyway.
    std::uint32_t memo_hint = 0;

    [[nodiscard]] double earliest_send(double min_rate) const {
      const double rate = rate_tps > min_rate ? rate_tps : min_rate;
      const double paced = last_send + last_tu_tokens / rate;
      return paced > hold_until ? paced : hold_until;
    }
  };
  struct DemandEntry {
    PaymentId payment = 0;
    Amount remaining = 0;
  };
  struct PairState {
    std::vector<PathState> paths;
    std::deque<DemandEntry> demands;
    std::size_t round_robin_cursor = 0;
    /// Own key, mirrored from the pairs_ map so the active list can sort
    /// and the wake machinery can name the pair without a reverse lookup.
    PairKey key{};
    /// Active-pair scheduling (incremental mode only; full-recompute
    /// sweeps the whole map and never touches these). A pair sleeps when
    /// its per-tick probe is a provable identity: no demands, nothing
    /// outstanding, and every path's rate pinned at a clamp bound with a
    /// price that keeps it pinned. It wakes on new demand, on a TU retry,
    /// on any non-decay price change of an incident channel (sleep_subs_),
    /// or at a conservatively precomputed decay tick (wake_heap_).
    bool awake = true;
    /// Bumped by every wake: stale sleep subscriptions and wake-heap
    /// entries (issued under an older epoch) are dropped lazily on
    /// inspection instead of being hunted down eagerly.
    std::uint64_t sleep_epoch = 0;
    /// Epoch under which the hop subscriptions were last registered; a
    /// decay re-check that leaves the pair asleep keeps the epoch, so the
    /// existing subscriptions stay valid and are not re-appended.
    std::uint64_t subs_epoch = ~std::uint64_t{0};
    /// Tick of the last wake. Re-sleeping is deferred (resleep_delay
    /// ticks) after a wake so a pair oscillating at a trigger threshold
    /// probes normally instead of thrashing the subscription lists —
    /// staying awake is always result-identical, only slower.
    std::uint64_t last_wake_tick = 0;
    /// Tick at which the pair last fell asleep (0 = never slept).
    std::uint64_t last_sleep_tick = 0;
    /// Adaptive hysteresis: doubled every time a sleep is cut short (the
    /// wake came within 4x the current delay), reset after a sleep that
    /// lasted. Pairs with steady periodic traffic quickly stop paying the
    /// sleep/wake bookkeeping (subscription registration, sorted insert)
    /// for probe skips they never collect; genuinely idle pairs sleep once
    /// and stay asleep. A scheduling heuristic only — results don't
    /// depend on it (asleep or awake, the pair's updates are identities).
    std::uint64_t resleep_delay = kResleepDelayTicks;
  };

  [[nodiscard]] static constexpr std::uint64_t pack_pair(PairKey pair) noexcept {
    return (static_cast<std::uint64_t>(pair.from) << 32) | pair.to;
  }
  [[nodiscard]] static constexpr PairKey unpack_pair(std::uint64_t a) noexcept {
    return PairKey{static_cast<NodeId>(a >> 32),
                   static_cast<NodeId>(a & 0xffffffffu)};
  }
  void admit_demand(Engine& engine, const pcn::Payment& payment);
  PairState* ensure_pair(Engine& engine, const PairKey& pair);
  void update_prices(Engine& engine);
  void probe_pairs(Engine& engine);

  // ---- Incremental tick machinery (bit-identical to the full sweep) ----
  /// Applies eqs. (21)-(22) to one channel (the full sweep's loop body).
  /// Returns whether the channel still carries price state (any of
  /// lambda/mu nonzero) — an all-zero channel's next update is an exact
  /// identity (required == 0, urgency == 0, clamps pin at 0.0, flats stay
  /// 0.0 bitwise), so it can be retired from the active set until a new
  /// arrival or balance move re-activates it.
  bool update_channel_price(Engine& engine, ChannelId c);
  /// Adds a channel to the incremental update set (idempotent).
  void activate_channel(ChannelId c) {
    if (full_recompute_ || channel_active_[c] != 0) return;
    channel_active_[c] = 1;
    active_channels_.push_back(c);
  }
  /// Re-inserts a sleeping pair into the probe sweep (idempotent). Bumps
  /// sleep_epoch, invalidating its subscriptions and wake-heap entries.
  void wake_pair(PairState& state);
  /// Probes one pair (the full sweep's loop body) and, in incremental
  /// mode, evaluates the sleep condition afterwards.
  void probe_one_pair(Engine& engine, const PairKey& pair, PairState& state);
  /// Decay re-check for a heap-woken pair: true iff this tick's probe is
  /// still an identity (prices haven't decayed past any clamp threshold),
  /// in which case `rearm_tick` holds the next conservative wake tick
  /// (0 = none needed).
  [[nodiscard]] bool sleeping_probe_is_identity(const PairState& state,
                                                std::uint64_t& rearm_tick) const;
  /// Conservative tick count for which a min-pinned path of total rate
  /// `total_rate` provably stays pinned while `price` decays by at most
  /// factor price_decay per tick; 0 when no safe margin exists.
  [[nodiscard]] std::uint64_t decay_ticks_until_unpin(double price,
                                                      double total_rate) const;
  void schedule_drip(Engine& engine, const PairKey& pair, std::size_t path_index);
  void try_send(Engine& engine, const PairKey& pair, std::size_t path_index);
  [[nodiscard]] double total_pair_rate(const PairState& pair) const;
  /// Per-hop amounts (eq. 24) for a TU of `value` on `path`, filled into
  /// fee_scratch_ — valid until the next fee_schedule call. Rejected admits
  /// (funds short, window re-check) thus cost no allocation; only a TU that
  /// is actually sent copies the schedule into its own storage. The network
  /// supplies each hop's ChannelPolicy, whose {fee_base, fee_proportional}
  /// compose with the price-derived rate (identity in a benign run: base 0,
  /// proportional 0.0 leaves every double bit-identical).
  [[nodiscard]] const std::vector<Amount>& fee_schedule(
      const pcn::Network& network, const PathState& path, Amount value) const;

  /// The one fee policy (eq. 24's rate term): shared by the public
  /// fee_rate() and the flat-array fee schedule so the formula can never
  /// diverge between the two data sources.
  [[nodiscard]] double fee_from_price(double price) const noexcept {
    return std::min(config_.fee_rate_cap, config_.t_fee * price);
  }

  /// O(1) pair lookup for the per-TU paths (drips, sends, delivery acks).
  /// pairs_ stays an ordered map because probe_pairs' iteration order
  /// schedules drip events — it must remain the sorted order the frozen
  /// event stream was recorded with; its nodes are pointer-stable, so the
  /// index can hold plain pointers.
  [[nodiscard]] PairState& pair_state(const PairKey& pair) {
    return *pair_index_.at(pack_pair(pair));
  }

  RateProtocolConfig config_;
  std::vector<ChannelPrices> prices_;
  /// channel_price() of every directed channel, refreshed by update_prices
  /// each tick (prices only change there): probe/fee sums become flat-array
  /// reads, bit-identical to recomputing the price per visit.
  std::vector<double> price_flat_;

  // ---- Incremental tick state (inert when full_recompute_) -------------
  /// Mirror of EngineConfig::full_recompute_ticks, latched at on_start.
  bool full_recompute_ = false;
  /// Protocol tick counter (first tick = 1; 0 is the "never" sentinel for
  /// price_tick/flat_tick_).
  std::uint64_t tick_ = 0;
  /// Tick at which each directed channel's flat price last changed
  /// bitwise — the staleness clock for memoized path price sums.
  std::vector<std::uint64_t> flat_tick_;
  /// Channels whose price state may be nonzero, i.e. whose per-tick update
  /// is not a provable identity. Flag vector + compacting visit list;
  /// entries retire when their post-update state is exactly zero.
  std::vector<char> channel_active_;
  std::vector<ChannelId> active_channels_;
  /// Awake pairs in ascending PairKey order — the probe sweep's iteration
  /// set. The order matches the full sweep over the ordered pairs_ map, so
  /// the drip events it schedules form the identical subsequence of the
  /// frozen event stream. Compacted in place as pairs fall asleep; wakes
  /// insert at the sorted position. Single-owner state of the router tick
  /// (writer-lanes lint rule).
  std::vector<PairState*> active_pairs_;
  /// Wake masks for sleep subscriptions: which kind of flat-price change
  /// breaks the subscribing path's pin. A min-pinned path tolerates pure
  /// decay (the wake heap bounds that) but not a steeper drop; a
  /// max-pinned path tolerates any drop but no rise.
  static constexpr std::uint8_t kWakeOnDrop = 1;
  static constexpr std::uint8_t kWakeOnRise = 2;
  /// Base ticks a freshly woken pair stays in the sweep before it may
  /// sleep again (anti-thrash hysteresis; see PairState::resleep_delay
  /// for the adaptive doubling and kMaxResleepDelayTicks for the cap).
  static constexpr std::uint64_t kResleepDelayTicks = 4;
  static constexpr std::uint64_t kMaxResleepDelayTicks = 1024;
  /// Per-directed-channel sleep subscriptions (indexed like price_flat_):
  /// sleeping pairs to wake when this flat price changes in a way their
  /// mask cares about. Triggered entries and entries from older sleep
  /// epochs are dropped at inspection time.
  struct SleepSub {
    /// Direct pointer — pairs_ map nodes are pointer-stable and never
    /// erased, and waking is order-insensitive (a set-union of awake
    /// flags; the sweep order comes from the key-sorted active list), so
    /// no hash lookup is needed on the flat-change hot path.
    PairState* pair = nullptr;
    std::uint64_t epoch = 0;  // valid iff == the pair's sleep_epoch
    std::uint8_t mask = 0;    // kWakeOnDrop / kWakeOnRise
  };
  std::vector<std::vector<SleepSub>> sleep_subs_;
  /// Min-heap (by tick, then key) of conservative decay wake-ups for
  /// min-pinned sleeping pairs. Entries are re-validated on pop — a pair
  /// still provably pinned just re-arms under the same epoch.
  struct WakeEntry {
    std::uint64_t tick = 0;
    std::uint64_t key = 0;  // pack_pair key — ordering only, never deref'd
    PairState* pair = nullptr;  // stable node pointer (pairs_ never erases)
    std::uint64_t epoch = 0;
    /// Min-heap ordering: std::push_heap keeps the *greatest* on top, so
    /// "greater" entries (later ticks) sink. The packed key breaks ties so
    /// heap shape never depends on pointer values.
    friend bool operator<(const WakeEntry& a, const WakeEntry& b) noexcept {
      return a.tick != b.tick ? a.tick > b.tick : a.key > b.key;
    }
  };
  std::vector<WakeEntry> wake_heap_;

  std::map<PairKey, PairState> pairs_;
  // SPLICER_LINT_ALLOW(unordered-decl): keyed O(1) lookup cache over pairs_;
  // never iterated — every order-sensitive sweep walks the ordered pairs_ map.
  std::unordered_map<std::uint64_t, PairState*> pair_index_;
  // SPLICER_LINT_ALLOW(unordered-decl): keyed lookup/erase by PaymentId only,
  // never iterated; iteration order cannot reach the event stream.
  std::unordered_map<PaymentId, PairKey> pair_of_payment_;
  /// fee_schedule's output buffer: one live schedule at a time (try_send
  /// consumes it before the next call), so the per-TU vector is hoisted out
  /// of the send path — capacity reaches the longest path's hop count once
  /// and stays there. Mutable because fee_schedule is logically const.
  mutable std::vector<Amount> fee_scratch_;
};

}  // namespace splicer::routing
