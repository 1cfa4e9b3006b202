#include "sketch/count_min_sketch.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace skimjoin {
namespace sketch {

StatusOr<CountMinSketch> CountMinSketch::Create(const CountMinConfig& config,
                                                uint64_t seed) {
  SKIMJOIN_ASSIGN_OR_RETURN(TableSketch core, Make(config, seed));
  return CountMinSketch(std::move(core));
}

StatusOr<CountMinSketch> CountMinSketch::DeserializeFrom(std::istream& in) {
  SKIMJOIN_ASSIGN_OR_RETURN(TableSketch core, ReadRecord(in));
  return CountMinSketch(std::move(core));
}

int64_t CountMinSketch::PointEstimate(uint64_t value) const {
  int64_t best = INT64_MAX;
  for (uint64_t table = 0; table < config().num_tables; ++table) {
    best = std::min(best, Counter(table, Bucket(table, value)));
  }
  return best;
}

StatusOr<double> CountMinSketch::EstimateJoinSize(const CountMinSketch& f,
                                                  const CountMinSketch& g) {
  if (!f.CompatibleWith(g)) {
    return InvalidArgumentError(
        "Count-Min join estimation requires sketches with equal configuration "
        "and seed");
  }
  return MinOverTables(PerTableJoinProducts(f, g));
}

double CountMinSketch::MinOverTables(const std::vector<double>& per_table) {
  double best = 0.0;
  bool first = true;
  for (double sum : per_table) {
    if (first || sum < best) {
      best = sum;
      first = false;
    }
  }
  return best;
}

StatusOr<EstimateReport> CountMinSketch::EstimateJoinSizeWithReport(
    const CountMinSketch& f, const CountMinSketch& g) {
  if (!f.CompatibleWith(g)) {
    return InvalidArgumentError(
        "Count-Min join estimation requires sketches with equal configuration "
        "and seed");
  }
  EstimateReport report;
  report.method = "count-min";
  report.copy_estimates = PerTableJoinProducts(f, g);
  report.estimate = MinOverTables(report.copy_estimates);
  // Expected one-table excess over the true inner product is bounded by
  // F1(F)·F1(G)/b for insert-only streams; F1 is recovered exactly as any
  // one table's counter sum. This is a one-sided envelope: truth lies in
  // [estimate - bound, estimate] w.h.p.
  report.apriori_bound = f.TotalWeight() * g.TotalWeight() /
                         static_cast<double>(f.config().num_buckets);
  FinishReportFromCopies(&report);
  return report;
}

double CountMinSketch::TotalWeight() const {
  double sum = 0.0;
  for (uint64_t k = 0; k < config().num_buckets; ++k) {
    sum += static_cast<double>(Counter(0, k));
  }
  return sum;
}

}  // namespace sketch
}  // namespace skimjoin
