#include "trace.h"

#include <chrono>
#include <ctime>
#include <fstream>

namespace perfbench {

std::int64_t wall_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
  stack_.reserve(64);
}

std::uint16_t SpanLog::label(const std::string& name) {
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == name) return static_cast<std::uint16_t>(i);
  }
  labels_.push_back(name);
  return static_cast<std::uint16_t>(labels_.size() - 1);
}

void SpanLog::open(std::uint16_t label) {
  std::uint32_t span = Span::kNoParent;
  if (spans_.size() < capacity_) {
    span = static_cast<std::uint32_t>(spans_.size());
    Span s;
    s.parent = Span::kNoParent;
    // The causing span is the innermost open one that was stored.
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->span != Span::kNoParent) {
        s.parent = it->span;
        break;
      }
    }
    s.request = request_;
    s.label = label;
    spans_.push_back(s);
  } else {
    ++dropped_;
  }
  // Read the clock last so bookkeeping is not charged to the span.
  stack_.push_back(Frame{wall_ns(), 0, span, label});
}

SpanLog::Closed SpanLog::close() {
  const std::int64_t end = wall_ns();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - frame.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (frame.span != Span::kNoParent) {
    spans_[frame.span].start_ns = frame.start_ns;
    spans_[frame.span].end_ns = end;
  }
  return Closed{duration, duration - frame.child_ns};
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "request,label,parent,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << s.request << ',' << labels_[s.label] << ',';
    if (s.parent != Span::kNoParent) out << s.parent;
    out << ',' << (s.start_ns - origin) << ',' << (s.end_ns - origin) << '\n';
  }
  return static_cast<bool>(out);
}

const char* hook_name(Hook hook) noexcept {
  switch (hook) {
    case Hook::kStart: return "on_start";
    case Hook::kPayment: return "on_payment";
    case Hook::kTuDelivered: return "on_tu_delivered";
    case Hook::kTuFailed: return "on_tu_failed";
    case Hook::kTuForwarded: return "on_tu_forwarded";
    case Hook::kPaymentTimeout: return "on_payment_timeout";
    case Hook::kPaymentResolved: return "on_payment_resolved";
    case Hook::kTimer: return "on_timer";
  }
  return "?";
}

/// One hook call: samples the scheduler population, opens the span, and on
/// exit folds the call's self time into the router trace.
class TracingRouter::HookSpan {
 public:
  HookSpan(TracingRouter& router, splicer::routing::Engine& engine, Hook hook)
      : router_(router), hook_(static_cast<std::size_t>(hook)) {
    const std::size_t pending = engine.scheduler().pending();
    if (pending > router_.trace_.pending_max) router_.trace_.pending_max = pending;
    router_.log_.open(router_.labels_[hook_]);
  }
  ~HookSpan() {
    const std::int64_t self_ns = router_.log_.close().self_ns;
    HookTotals& totals = router_.trace_.hooks[hook_];
    ++totals.calls;
    totals.self_ns += self_ns;
    if (hook_ == static_cast<std::size_t>(Hook::kPayment)) {
      router_.trace_.payment_self_us.push_back(static_cast<double>(self_ns) * 1e-3);
    }
  }
  HookSpan(const HookSpan&) = delete;
  HookSpan& operator=(const HookSpan&) = delete;

 private:
  TracingRouter& router_;
  std::size_t hook_;
};

TracingRouter::TracingRouter(splicer::routing::Router& inner, SpanLog& log,
                             RouterTrace& trace)
    : inner_(inner), log_(log), trace_(trace) {
  for (std::size_t h = 0; h < kHookCount; ++h) {
    labels_[h] = log_.label(std::string("router.") + hook_name(static_cast<Hook>(h)));
  }
}

void TracingRouter::on_start(splicer::routing::Engine& engine) {
  const HookSpan span(*this, engine, Hook::kStart);
  inner_.on_start(engine);
}

void TracingRouter::on_payment(splicer::routing::Engine& engine,
                               const splicer::pcn::Payment& payment) {
  const HookSpan span(*this, engine, Hook::kPayment);
  inner_.on_payment(engine, payment);
}

void TracingRouter::on_tu_delivered(splicer::routing::Engine& engine,
                                    const splicer::routing::TransactionUnit& tu) {
  const HookSpan span(*this, engine, Hook::kTuDelivered);
  inner_.on_tu_delivered(engine, tu);
}

void TracingRouter::on_tu_failed(splicer::routing::Engine& engine,
                                 const splicer::routing::TransactionUnit& tu,
                                 splicer::routing::FailReason reason) {
  const HookSpan span(*this, engine, Hook::kTuFailed);
  inner_.on_tu_failed(engine, tu, reason);
}

void TracingRouter::on_tu_forwarded(splicer::routing::Engine& engine,
                                    const splicer::routing::TransactionUnit& tu,
                                    splicer::routing::ChannelId channel,
                                    splicer::pcn::Direction direction) {
  const HookSpan span(*this, engine, Hook::kTuForwarded);
  inner_.on_tu_forwarded(engine, tu, channel, direction);
}

void TracingRouter::on_payment_timeout(splicer::routing::Engine& engine,
                                       splicer::routing::PaymentId payment) {
  const HookSpan span(*this, engine, Hook::kPaymentTimeout);
  inner_.on_payment_timeout(engine, payment);
}

void TracingRouter::on_payment_resolved(splicer::routing::Engine& engine,
                                        splicer::routing::PaymentId payment) {
  const HookSpan span(*this, engine, Hook::kPaymentResolved);
  inner_.on_payment_resolved(engine, payment);
}

void TracingRouter::on_timer(splicer::routing::Engine& engine, std::uint64_t a,
                             std::uint64_t b) {
  const HookSpan span(*this, engine, Hook::kTimer);
  inner_.on_timer(engine, a, b);
}

}  // namespace perfbench
