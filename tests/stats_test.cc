#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "gtest/gtest.h"

namespace skimjoin {
namespace {

TEST(MedianTest, SingleElement) { EXPECT_DOUBLE_EQ(Median({4.5}), 4.5); }

TEST(MedianTest, OddCount) { EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0); }

TEST(MedianTest, EvenCountAveragesCenter) {
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(MedianTest, RobustToOutliers) {
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4, 1e12}), 3.0);
}

TEST(MedianTest, NegativeValues) {
  EXPECT_DOUBLE_EQ(Median({-5, -1, -3}), -3.0);
}

TEST(MedianTest, Duplicates) { EXPECT_DOUBLE_EQ(Median({2, 2, 2, 7}), 2.0); }

TEST(MeanTest, Basics) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({-1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({7}), 7.0);
}

TEST(StdDevTest, ConstantVectorIsZero) {
  EXPECT_DOUBLE_EQ(StdDev({3, 3, 3}), 0.0);
}

TEST(StdDevTest, KnownValue) {
  // Population stddev of {1, 3} is 1.
  EXPECT_DOUBLE_EQ(StdDev({1, 3}), 1.0);
}

TEST(PercentileTest, Extremes) {
  std::vector<double> v{5, 1, 9, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 9.0);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  // Sorted: 1 3 5 9; q=0.5 lands between 3 and 5.
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 9, 3}, 0.5), 4.0);
}

TEST(PercentileTest, SingleElement) {
  EXPECT_DOUBLE_EQ(Percentile({2.5}, 0.73), 2.5);
}

TEST(MedianInt64Test, OddCount) {
  EXPECT_EQ(MedianInt64({9, -2, 5}), 5);
}

TEST(MedianInt64Test, EvenCountAveragesTruncating) {
  EXPECT_EQ(MedianInt64({1, 2, 3, 4}), 2);  // (2+3)/2 truncates toward 2
  EXPECT_EQ(MedianInt64({2, 4}), 3);
}

TEST(MedianInt64Test, LargeMagnitudesDoNotOverflow) {
  const int64_t big = INT64_MAX - 1;
  EXPECT_EQ(MedianInt64({big, big}), big);
  EXPECT_EQ(MedianInt64({-big, -big}), -big);
  // The middle two straddle more than INT64_MAX; the midpoint rounds down.
  EXPECT_EQ(MedianInt64({INT64_MIN, INT64_MAX}), -1);
  EXPECT_EQ(MedianInt64({INT64_MIN, INT64_MIN + 1}), INT64_MIN);
}

// Seven values take the sorting network; every ordering of a multiset with
// repeats gives the selected middle value.
TEST(MedianInt64Test, SevenValuesThroughTheNetworkMatchSelection) {
  std::vector<int64_t> values = {-5, 3, 3, INT64_MIN, 9, 0, INT64_MAX};
  std::sort(values.begin(), values.end());
  const int64_t middle = values[3];
  int permutations = 0;
  do {
    std::vector<int64_t> copy = values;
    ASSERT_EQ(MedianInt64(std::span<int64_t>(copy)), middle);
    ++permutations;
  } while (std::next_permutation(values.begin(), values.end()));
  EXPECT_EQ(permutations, 5040 / 2);  // 7! over the repeated 3
}

// Property sweep: Median is invariant under permutation and bounded by
// min/max.
class MedianPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MedianPropertyTest, BoundedAndPermutationInvariant) {
  const int n = GetParam();
  std::vector<double> values;
  values.reserve(n);
  // Deterministic pseudo-data.
  for (int i = 0; i < n; ++i) {
    values.push_back(std::sin(static_cast<double>(i * 37 + n)) * 100.0);
  }
  const double med = Median(values);
  double lo = values[0], hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GE(med, lo);
  EXPECT_LE(med, hi);
  std::vector<double> reversed(values.rbegin(), values.rend());
  EXPECT_DOUBLE_EQ(Median(reversed), med);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MedianPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 21, 64, 101));

}  // namespace
}  // namespace skimjoin
