#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/logging.h"

namespace skimjoin {

double Median(std::vector<double> values) {
  SKIMJOIN_CHECK(!values.empty());
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double Mean(const std::vector<double>& values) {
  SKIMJOIN_CHECK(!values.empty());
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  SKIMJOIN_CHECK(!values.empty());
  const double mean = Mean(values);
  double ss = 0.0;
  for (double v : values) ss += (v - mean) * (v - mean);
  return std::sqrt(ss / static_cast<double>(values.size()));
}

double Percentile(std::vector<double> values, double q) {
  SKIMJOIN_CHECK(!values.empty());
  SKIMJOIN_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

int64_t MedianInt64(std::span<int64_t> values) {
  SKIMJOIN_CHECK(!values.empty());
  if (values.size() == 7) {
    std::array<int64_t, 7> v;
    std::copy(values.begin(), values.end(), v.begin());
    return MedianOf7(v);
  }
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const int64_t upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const int64_t lower =
      *std::max_element(values.begin(), values.begin() + mid);
  // upper - lower can pass INT64_MAX; as an unsigned gap it cannot wrap.
  const uint64_t gap =
      static_cast<uint64_t>(upper) - static_cast<uint64_t>(lower);
  return static_cast<int64_t>(static_cast<uint64_t>(lower) + gap / 2);
}

}  // namespace skimjoin
