#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace gridmon::util {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats stats;
  stats.add(42.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 42.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
}

TEST(OnlineStats, NegativeValues) {
  OnlineStats stats;
  stats.add(-10.0);
  stats.add(10.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a;
  a.add(1.0);
  a.add(3.0);
  OnlineStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);

  OnlineStats c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 2.0);
}

/// Property: merging two streams equals pooling every sample.
class OnlineStatsMergeProperty : public ::testing::TestWithParam<int> {};

TEST_P(OnlineStatsMergeProperty, MergeEqualsPooled) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  OnlineStats left;
  OnlineStats right;
  OnlineStats pooled;
  const int n_left = static_cast<int>(rng.uniform_int(1, 200));
  const int n_right = static_cast<int>(rng.uniform_int(1, 200));
  for (int i = 0; i < n_left; ++i) {
    const double x = rng.uniform(-100.0, 100.0);
    left.add(x);
    pooled.add(x);
  }
  for (int i = 0; i < n_right; ++i) {
    const double x = rng.normal(5.0, 2.0);
    right.add(x);
    pooled.add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), pooled.count());
  EXPECT_NEAR(left.mean(), pooled.mean(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineStatsMergeProperty,
                         ::testing::Range(1, 17));

TEST(SampleSet, EmptyQuantiles) {
  SampleSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_DOUBLE_EQ(set.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(set.fraction_below(10.0), 0.0);
}

TEST(SampleSet, ExactQuantiles) {
  SampleSet set;
  for (double x : {10.0, 20.0, 30.0, 40.0, 50.0}) set.add(x);
  EXPECT_DOUBLE_EQ(set.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(set.quantile(0.25), 20.0);
  EXPECT_DOUBLE_EQ(set.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(set.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(set.max(), 50.0);
}

TEST(SampleSet, InterpolatesBetweenOrderStatistics) {
  SampleSet set;
  set.add(0.0);
  set.add(100.0);
  EXPECT_DOUBLE_EQ(set.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(set.quantile(0.75), 75.0);
}

TEST(SampleSet, QuantileClampsOutOfRange) {
  SampleSet set;
  set.add(1.0);
  set.add(2.0);
  EXPECT_DOUBLE_EQ(set.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(set.quantile(2.0), 2.0);
}

TEST(SampleSet, UnsortedInsertionOrderIsIrrelevant) {
  SampleSet a;
  SampleSet b;
  for (double x : {5.0, 1.0, 3.0}) a.add(x);
  for (double x : {1.0, 3.0, 5.0}) b.add(x);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), b.quantile(0.5));
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
}

TEST(SampleSet, FractionBelow) {
  SampleSet set;
  for (int i = 1; i <= 100; ++i) set.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(set.fraction_below(50.0), 0.5);
  EXPECT_DOUBLE_EQ(set.fraction_below(100.0), 1.0);
  EXPECT_DOUBLE_EQ(set.fraction_below(0.5), 0.0);
}

TEST(SampleSet, MeanAndStddev) {
  SampleSet set;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) set.add(x);
  EXPECT_DOUBLE_EQ(set.mean(), 5.0);
  EXPECT_DOUBLE_EQ(set.stddev(), 2.0);
}

TEST(SampleSet, QuantileAfterAddingMoreSamples) {
  SampleSet set;
  set.add(1.0);
  EXPECT_DOUBLE_EQ(set.quantile(1.0), 1.0);
  set.add(10.0);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(set.quantile(1.0), 10.0);
}

}  // namespace
}  // namespace gridmon::util
