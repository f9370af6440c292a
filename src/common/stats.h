#pragma once

// Small statistics toolkit used by the evaluation harness: running moments
// and order statistics.

#include <cstddef>
#include <limits>
#include <vector>

namespace splicer::common {

/// Welford running mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Merges another accumulator (parallel Welford combination).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Two-sided 95% Student t quantile for `df` degrees of freedom: the exact
/// table entry for df <= 30, then linear interpolation in 1/df through the
/// df = 40, 60, 120 and infinity (1.960) anchors — no 2.042 -> 1.96 jump
/// between df 30 and 31. 0 for df == 0.
[[nodiscard]] double student_t95(std::size_t df) noexcept;

/// Half-width of the 95% confidence interval of the mean: t * s / sqrt(n)
/// with the two-sided Student t quantile (student_t95) for n - 1 degrees
/// of freedom. 0 for fewer than two samples.
[[nodiscard]] double ci95_half_width(const RunningStats& stats) noexcept;

/// Percentile of a sample (linear interpolation between closest ranks).
/// q in [0, 1]. Copies and sorts; fine for evaluation-sized data.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Median convenience wrapper.
[[nodiscard]] double median(std::vector<double> values);

}  // namespace splicer::common
