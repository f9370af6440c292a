#pragma once

// Test helper: a Router that forwards every hook to a wrapped router. A
// test observes one hook by overriding it and calling the base, without
// changing what the wrapped router does.

#include <cstdint>
#include <string>

#include "routing/router.h"

namespace splicer::routing {

class RouterDecorator : public Router {
 public:
  explicit RouterDecorator(Router& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void on_start(Engine& e) override { inner_.on_start(e); }
  void on_payment(Engine& e, const pcn::Payment& p) override {
    inner_.on_payment(e, p);
  }
  void on_tu_delivered(Engine& e, const TransactionUnit& tu) override {
    inner_.on_tu_delivered(e, tu);
  }
  void on_tu_failed(Engine& e, const TransactionUnit& tu,
                    FailReason reason) override {
    inner_.on_tu_failed(e, tu, reason);
  }
  void on_tu_forwarded(Engine& e, const TransactionUnit& tu, ChannelId c,
                       pcn::Direction d) override {
    inner_.on_tu_forwarded(e, tu, c, d);
  }
  void on_payment_timeout(Engine& e, PaymentId p) override {
    inner_.on_payment_timeout(e, p);
  }
  void on_payment_resolved(Engine& e, PaymentId p) override {
    inner_.on_payment_resolved(e, p);
  }
  void on_timer(Engine& e, std::uint64_t a, std::uint64_t b) override {
    inner_.on_timer(e, a, b);
  }

 private:
  Router& inner_;
};

}  // namespace splicer::routing
