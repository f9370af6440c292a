#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace splicer::common {

void RunningStats::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  // SPLICER_LINT_ALLOW(float-order): callers fold operands in a fixed index
  // order, so this Chan-style combine sees them in the same sequence on
  // every run and the gates see identical bits.
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double student_t95(std::size_t df) noexcept {
  if (df == 0) return 0.0;
  // Two-sided 95% Student t quantiles for df = 1..30.
  static constexpr double kT95[30] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df <= 30) return kT95[df - 1];
  // Beyond the table: interpolate linearly in 1/df through the standard
  // df = 40, 60, 120, infinity anchors (the quantile is near-linear in
  // 1/df, the classic textbook interpolation rule). Continuous at df 30.
  struct Anchor {
    double inv_df;
    double t;
  };
  static constexpr Anchor kTail[] = {{1.0 / 30.0, 2.042},
                                     {1.0 / 40.0, 2.021},
                                     {1.0 / 60.0, 2.000},
                                     {1.0 / 120.0, 1.980},
                                     {0.0, 1.960}};
  const double x = 1.0 / static_cast<double>(df);
  for (std::size_t i = 1; i < std::size(kTail); ++i) {
    if (x >= kTail[i].inv_df) {
      const Anchor hi = kTail[i - 1];
      const Anchor lo = kTail[i];
      const double frac = (x - lo.inv_df) / (hi.inv_df - lo.inv_df);
      return lo.t + frac * (hi.t - lo.t);
    }
  }
  return 1.960;
}

double ci95_half_width(const RunningStats& stats) noexcept {
  if (stats.count() < 2) return 0.0;
  return student_t95(stats.count() - 1) * stats.stddev() /
         std::sqrt(static_cast<double>(stats.count()));
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile q out of [0,1]");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

}  // namespace splicer::common
