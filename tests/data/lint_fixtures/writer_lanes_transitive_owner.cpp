// writer-lanes-transitive fixture (owner half, linted as
// src/routing/rate_protocol.cpp): helpers inside the owning component may
// touch active_pairs_; on_timer() is a sanctioned entry API. Pinned by
// LintInterproc.WriterLanesTransitive*.
struct RateRouterBase {
  void clear_active(int pair);
  void on_timer(int pair);
  int active_pairs_[8];
};

void RateRouterBase::clear_active(int pair) { active_pairs_[pair] = 0; }

void RateRouterBase::on_timer(int pair) { active_pairs_[pair] += 1; }
