#include "sketch/hash_sketch.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/stats.h"

namespace skimjoin {
namespace sketch {

StatusOr<HashSketch> HashSketch::Create(const HashSketchConfig& config,
                                        uint64_t seed) {
  SKIMJOIN_ASSIGN_OR_RETURN(TableSketch core, Make(config, seed));
  return HashSketch(std::move(core));
}

StatusOr<HashSketch> HashSketch::DeserializeFrom(std::istream& in) {
  SKIMJOIN_ASSIGN_OR_RETURN(TableSketch core, ReadRecord(in));
  return HashSketch(std::move(core));
}

int64_t HashSketch::PointEstimate(uint64_t value) const {
  // Per-table estimates live on the stack; only a sketch wider than any
  // shipped shape takes them from the heap.
  constexpr uint64_t kStackTables = 32;
  const uint64_t tables = config().num_tables;
  std::array<int64_t, kStackTables> stack;
  std::vector<int64_t> heap(tables > kStackTables ? tables : 0);
  const std::span<int64_t> estimates =
      tables > kStackTables ? std::span<int64_t>(heap)
                            : std::span<int64_t>(stack).first(tables);
  for (uint64_t table = 0; table < tables; ++table) {
    estimates[table] = SignedCounter(Sign(table, value) < 0,
                                     Counter(table, Bucket(table, value)));
  }
  return MedianInt64(estimates);
}

StatusOr<double> HashSketch::EstimateJoinSize(const HashSketch& f,
                                              const HashSketch& g) {
  if (!f.CompatibleWith(g)) {
    return InvalidArgumentError(
        "hash-sketch join estimation requires sketches with equal "
        "configuration and seed (shared h_j and ξ_j families)");
  }
  return Median(PerTableJoinProducts(f, g));
}

StatusOr<EstimateReport> HashSketch::EstimateJoinSizeWithReport(
    const HashSketch& f, const HashSketch& g) {
  if (!f.CompatibleWith(g)) {
    return InvalidArgumentError(
        "hash-sketch join estimation requires sketches with equal "
        "configuration and seed (shared h_j and ξ_j families)");
  }
  EstimateReport report;
  report.method = "hash-sketch";
  report.copy_estimates = PerTableJoinProducts(f, g);
  report.estimate = Median(report.copy_estimates);
  const double f2_f = std::max(f.EstimateSelfJoinSize(), 0.0);
  const double f2_g = std::max(g.EstimateSelfJoinSize(), 0.0);
  report.apriori_bound = 4.0 * std::sqrt(f2_f * f2_g /
                                         static_cast<double>(
                                             f.config().num_buckets));
  FinishReportFromCopies(&report);
  return report;
}

double HashSketch::EstimateSelfJoinSize() const {
  StatusOr<double> result = EstimateJoinSize(*this, *this);
  SKIMJOIN_CHECK(result.ok());
  return *result;
}

EstimateReport HashSketch::EstimateSelfJoinSizeWithReport() const {
  StatusOr<EstimateReport> report = EstimateJoinSizeWithReport(*this, *this);
  SKIMJOIN_CHECK(report.ok());
  report->method = "hash-sketch-selfjoin";
  return *std::move(report);
}

}  // namespace sketch
}  // namespace skimjoin
