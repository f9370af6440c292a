// float-order fixture: the floating accumulation lives in a helper reached
// from merge(); the annotated twin pins the sanctioned shape. Pinned by
// LintInterproc.FloatOrder*.
struct TrialStats {
  double mean_ = 0.0;
  long count_ = 0;
  void merge(const TrialStats& other);
  void fold_in(const TrialStats& other);
};

void TrialStats::merge(const TrialStats& other) { fold_in(other); }

void TrialStats::fold_in(const TrialStats& other) {
  const double weight = other.mean_;
  mean_ += weight;
  count_ += other.count_;
}

struct OkStats {
  double sum_ = 0.0;
  void merge(const OkStats& other) {
    const double incoming = other.sum_;
    // SPLICER_LINT_ALLOW(float-order): trials are folded in ascending
    // trial index on the calling thread; the order never varies.
    sum_ += incoming;
  }
};
