#pragma once

// Outside-in layer tracing for the perfbench harness.
//
// Nothing here touches the library: spans are opened around calls into
// its public API (Engine::run, the Router hooks through TracingRouter, the
// graph / placement / lp / submodular entry points), kept in memory and
// written once when the benchmark ends. A span records its label, start,
// end, the span that caused it (the enclosing open span) and the request
// it belongs to (one scheme run or one placement solve). Self time is a
// span's duration minus the time its child spans cover.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "routing/engine.h"
#include "routing/router.h"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
[[nodiscard]] std::int64_t wall_ns() noexcept;

/// CPU time of the calling thread in seconds (CLOCK_THREAD_CPUTIME_ID).
[[nodiscard]] double thread_cpu_s() noexcept;

/// One closed span. `parent` indexes the causing span in the same log
/// (kNoParent for a root).
struct Span {
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint32_t request = 0;
  std::uint16_t label = 0;
};

/// Nesting span recorder. Spans past `capacity` are still timed and
/// nested (self times stay exact) but are not stored; `dropped()` counts
/// them.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);

  /// Interns a label; returns its id.
  std::uint16_t label(const std::string& name);

  /// Marks the spans opened from now on as belonging to `request`.
  void set_request(std::uint32_t request) noexcept { request_ = request; }

  /// Duration and self time of a closed span, in ns.
  struct Closed {
    std::int64_t duration_ns = 0;
    std::int64_t self_ns = 0;
  };

  void open(std::uint16_t label);
  /// Closes the innermost open span.
  Closed close();

  [[nodiscard]] std::size_t recorded() const noexcept { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Writes every stored span as CSV (request,label,parent,start_ns,end_ns;
  /// times relative to the first span). Returns false if the file cannot
  /// be written.
  bool write_csv(const std::string& path) const;

 private:
  struct Frame {
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint32_t span;
    std::uint16_t label;
  };
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::vector<std::string> labels_;
  std::uint32_t request_ = 0;
  std::uint64_t dropped_ = 0;
};

/// RAII span over one call; on exit stores its times in `*out` if given.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::uint16_t label, SpanLog::Closed* out = nullptr)
      : log_(log), out_(out) {
    log_.open(label);
  }
  ~ScopedSpan() {
    const SpanLog::Closed closed = log_.close();
    if (out_ != nullptr) *out_ = closed;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  SpanLog::Closed* out_;
};

/// Router hooks, in the order TracingRouter reports them.
enum class Hook : std::uint8_t {
  kStart,
  kPayment,
  kTuDelivered,
  kTuFailed,
  kTuForwarded,
  kPaymentTimeout,
  kPaymentResolved,
  kTimer,
};
inline constexpr std::size_t kHookCount = 8;

[[nodiscard]] const char* hook_name(Hook hook) noexcept;

/// Per-scheme-run aggregates filled by TracingRouter.
struct HookTotals {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};

struct RouterTrace {
  std::array<HookTotals, kHookCount> hooks{};
  std::vector<double> payment_self_us;  // one per on_payment call
  std::size_t pending_max = 0;          // peak scheduler population at hook entry
};

/// Forwarding decorator: every Router hook, name() included, goes to
/// `inner` unchanged; each call is a span in `log` and its self time
/// (nested hooks subtracted) is added to `trace`.
class TracingRouter final : public splicer::routing::Router {
 public:
  TracingRouter(splicer::routing::Router& inner, SpanLog& log, RouterTrace& trace);

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void on_start(splicer::routing::Engine& engine) override;
  void on_payment(splicer::routing::Engine& engine,
                  const splicer::pcn::Payment& payment) override;
  void on_tu_delivered(splicer::routing::Engine& engine,
                       const splicer::routing::TransactionUnit& tu) override;
  void on_tu_failed(splicer::routing::Engine& engine,
                    const splicer::routing::TransactionUnit& tu,
                    splicer::routing::FailReason reason) override;
  void on_tu_forwarded(splicer::routing::Engine& engine,
                       const splicer::routing::TransactionUnit& tu,
                       splicer::routing::ChannelId channel,
                       splicer::pcn::Direction direction) override;
  void on_payment_timeout(splicer::routing::Engine& engine,
                          splicer::routing::PaymentId payment) override;
  void on_payment_resolved(splicer::routing::Engine& engine,
                           splicer::routing::PaymentId payment) override;
  void on_timer(splicer::routing::Engine& engine, std::uint64_t a,
                std::uint64_t b) override;

 private:
  class HookSpan;
  splicer::routing::Router& inner_;
  SpanLog& log_;
  RouterTrace& trace_;
  std::array<std::uint16_t, kHookCount> labels_{};
};

}  // namespace perfbench
