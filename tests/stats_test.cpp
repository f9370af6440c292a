#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace splicer::common {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(1);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Percentile, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, MedianOfEvenCountInterpolates) {
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Percentile, ExtremesAreMinMax) {
  const std::vector<double> v{5.0, 1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Percentile, EmptyReturnsZero) { EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0); }

TEST(Percentile, OutOfRangeThrows) {
  EXPECT_THROW((void)percentile({1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, -0.1), std::invalid_argument);
}

TEST(StudentT95, TableEntriesAreExact) {
  EXPECT_DOUBLE_EQ(student_t95(1), 12.706);
  EXPECT_DOUBLE_EQ(student_t95(10), 2.228);
  EXPECT_DOUBLE_EQ(student_t95(30), 2.042);
}

TEST(StudentT95, NoDiscontinuityPastTheTable) {
  // The historical implementation jumped from t(30) = 2.042 straight to
  // 1.96 at df 31; the interpolated tail steps down smoothly instead.
  const double t30 = student_t95(30);
  const double t31 = student_t95(31);
  EXPECT_DOUBLE_EQ(t30, 2.042);
  // Pin the interpolated df = 31 value: linear in 1/df between the df = 30
  // and df = 40 anchors, t = 2.021 + (2.042 - 2.021) *
  // (1/31 - 1/40) / (1/30 - 1/40).
  const double expected31 =
      2.021 + (2.042 - 2.021) * (1.0 / 31 - 1.0 / 40) / (1.0 / 30 - 1.0 / 40);
  EXPECT_DOUBLE_EQ(t31, expected31);
  EXPECT_NEAR(t31, 2.0394, 1e-3);
  EXPECT_LT(t30 - t31, 0.005);  // a step, not the old 0.082 cliff
}

TEST(StudentT95, TailHitsTheStandardAnchorsAndLimit) {
  EXPECT_DOUBLE_EQ(student_t95(40), 2.021);
  EXPECT_DOUBLE_EQ(student_t95(60), 2.000);
  EXPECT_DOUBLE_EQ(student_t95(120), 1.980);
  EXPECT_NEAR(student_t95(100000), 1.960, 1e-3);
  // Monotone non-increasing across the seam and the whole tail.
  double prev = student_t95(25);
  for (std::size_t df = 26; df <= 200; ++df) {
    const double t = student_t95(df);
    EXPECT_LE(t, prev + 1e-12) << "df " << df;
    prev = t;
  }
  EXPECT_DOUBLE_EQ(student_t95(0), 0.0);
}

TEST(StudentT95, Ci95UsesTheSmoothedQuantile) {
  RunningStats wide;  // 32 samples -> df 31, the old cliff edge
  for (int i = 0; i < 32; ++i) wide.add(static_cast<double>(i % 2));
  const double expected =
      student_t95(31) * wide.stddev() / std::sqrt(32.0);
  EXPECT_DOUBLE_EQ(ci95_half_width(wide), expected);
}

}  // namespace
}  // namespace splicer::common
