#include "core/skim.h"

#include <algorithm>
#include <cstdlib>

#include "sketch/point_scan.h"
#include "util/logging.h"
#include "util/stats.h"

namespace skimjoin {
namespace core {

int64_t LookupDense(const DenseFrequencies& dense, uint64_t value) {
  const auto it = std::lower_bound(
      dense.begin(), dense.end(), value,
      [](const std::pair<uint64_t, int64_t>& entry, uint64_t v) {
        return entry.first < v;
      });
  if (it == dense.end() || it->first != value) return 0;
  return it->second;
}

namespace {

// How much of `estimate` Fig. 3 skims (steps 6, 8–9): nothing unless
// |estimate| reaches the threshold, else the estimate itself — less a
// positive `margin` held back (Theorem 4's conservative skim), and nothing
// if the margin takes it all.
int64_t SkimmedAmount(int64_t estimate, int64_t threshold, int64_t margin) {
  if (std::llabs(estimate) < threshold) return 0;
  const int64_t magnitude = std::llabs(estimate) - margin;
  if (magnitude <= 0) return 0;
  return estimate >= 0 ? magnitude : -magnitude;
}

}  // namespace

DenseFrequencies SkimDenseNaive(sketch::HashSketch* sketch,
                                uint64_t domain_size, int64_t threshold,
                                int64_t margin) {
  SKIMJOIN_CHECK(sketch != nullptr);
  SKIMJOIN_CHECK_GE(threshold, 1);
  SKIMJOIN_CHECK_GE(margin, 0);
  DenseFrequencies dense;
  sketch::PointScan scan(*sketch, 0, domain_size);
  while (scan.NextBlock()) {
    for (size_t i = 0; i < scan.estimates().size(); ++i) {
      const int64_t skimmed =
          SkimmedAmount(scan.estimates()[i], threshold, margin);
      if (skimmed == 0) continue;
      const uint64_t value = scan.block_lo() + i;
      dense.emplace_back(value, skimmed);
      sketch->UpdateUncached(value, -skimmed);
      // Fig. 3 is sequential: the rest of the block is tested against the
      // counters this subtraction left.
      scan.Reestimate(i + 1);
    }
  }
  return dense;  // domain scan emits values in sorted order already
}

DenseFrequencies SkimDenseCandidates(sketch::HashSketch* sketch,
                                     const std::vector<uint64_t>& candidates,
                                     int64_t threshold, int64_t margin) {
  SKIMJOIN_CHECK(sketch != nullptr);
  SKIMJOIN_CHECK_GE(threshold, 1);
  SKIMJOIN_CHECK_GE(margin, 0);
  std::vector<uint64_t> unique = candidates;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  DenseFrequencies dense;
  for (uint64_t value : unique) {
    const int64_t skimmed =
        SkimmedAmount(sketch->PointEstimate(value), threshold, margin);
    if (skimmed == 0) continue;
    dense.emplace_back(value, skimmed);
    sketch->UpdateUncached(value, -skimmed);
  }
  return dense;
}

double DenseDenseJoin(const DenseFrequencies& f, const DenseFrequencies& g) {
  __int128 total = 0;
  auto fi = f.begin();
  auto gi = g.begin();
  while (fi != f.end() && gi != g.end()) {
    if (fi->first < gi->first) {
      ++fi;
    } else if (gi->first < fi->first) {
      ++gi;
    } else {
      total += static_cast<__int128>(fi->second) * gi->second;
      ++fi;
      ++gi;
    }
  }
  return static_cast<double>(total);
}

std::vector<double> EstimateSubJoinSizePerTable(
    const DenseFrequencies& dense_f, const sketch::HashSketch& skimmed_g) {
  const uint64_t num_tables = skimmed_g.config().num_tables;
  std::vector<double> per_table;
  per_table.reserve(num_tables);
  for (uint64_t table = 0; table < num_tables; ++table) {
    double sum = 0.0;
    for (const auto& [value, frequency] : dense_f) {
      const uint64_t bucket = skimmed_g.Bucket(table, value);
      sum += static_cast<double>(frequency) *
             static_cast<double>(skimmed_g.Sign(table, value)) *
             static_cast<double>(skimmed_g.Counter(table, bucket));
    }
    per_table.push_back(sum);
  }
  return per_table;
}

double EstimateSubJoinSize(const DenseFrequencies& dense_f,
                           const sketch::HashSketch& skimmed_g) {
  return Median(EstimateSubJoinSizePerTable(dense_f, skimmed_g));
}

}  // namespace core
}  // namespace skimjoin
