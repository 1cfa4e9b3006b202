// Order statistics and summary statistics used by the estimators
// (median-of-means boosting) and the benchmark harness.

#ifndef SKIMJOIN_UTIL_STATS_H_
#define SKIMJOIN_UTIL_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace skimjoin {

/// Median of `values` (lower median for even sizes is NOT used: the two
/// central elements are averaged, matching the convention in the paper's
/// estimator pseudo-code). Pre-condition: !values.empty(). The input is
/// taken by value because selection reorders it.
double Median(std::vector<double> values);

/// Arithmetic mean. Pre-condition: !values.empty().
double Mean(const std::vector<double>& values);

/// Population standard deviation. Pre-condition: !values.empty().
double StdDev(const std::vector<double>& values);

/// Linear-interpolation percentile, q in [0, 1]. Pre-condition:
/// !values.empty() and 0 <= q <= 1.
double Percentile(std::vector<double> values, double q);

/// A sorting network for seven values with 16 compare-exchanges, the fewest
/// possible (Knuth, TAOCP vol. 3 §5.3.4): ordering each pair (a, b) so that
/// v[a] <= v[b], in this order, sorts v. A hash sketch with seven tables —
/// every shipped shape — takes its point-estimate median through it, in
/// MedianOf7 and in the vector lanes of sketch/point_scan.cc.
inline constexpr std::array<std::pair<int, int>, 16> kSortingNetwork7 = {{
    {0, 6}, {2, 3}, {4, 5}, {0, 2}, {1, 4}, {3, 6}, {0, 1}, {2, 5},
    {3, 4}, {1, 2}, {4, 6}, {2, 3}, {4, 5}, {1, 2}, {3, 4}, {5, 6},
}};

/// The median of seven values through kSortingNetwork7, in registers and
/// without branches: estimates arrive in random order, so a compare that
/// branched would mispredict about every other time.
inline int64_t MedianOf7(std::array<int64_t, 7> v) {
#pragma GCC unroll 16
  for (const auto& [a, b] : kSortingNetwork7) {
    const bool swap = v[b] < v[a];
    const int64_t low = swap ? v[b] : v[a];
    v[b] = swap ? v[a] : v[b];
    v[a] = low;
  }
  return v[3];
}

/// Integer median used on counter-valued estimates; for an even count the
/// two central elements are averaged, rounding down (lower + (upper −
/// lower)/2, evaluated without overflow). May reorder `values`; seven
/// values go through MedianOf7. Pre-condition: !values.empty().
int64_t MedianInt64(std::span<int64_t> values);

/// The same median of a vector the caller hands over.
inline int64_t MedianInt64(std::vector<int64_t> values) {
  return MedianInt64(std::span<int64_t>(values));
}

}  // namespace skimjoin

#endif  // SKIMJOIN_UTIL_STATS_H_
