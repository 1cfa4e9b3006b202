// Count-Min sketch [Cormode–Muthukrishnan '04], included as an additional
// point-estimation / join-size baseline for the ablation benchmarks.
//
// Same table-of-buckets layout as the hash sketch but without ±1 signs:
// counters only ever accumulate |weight| contributions of colliding values,
// so point estimates are one-sided overestimates (min over tables) and the
// inner-product estimate is an upper bound in insert-only streams. With
// deletions the one-sided guarantee disappears — one of the reasons the
// paper's estimators are built on ±1 atomic sketches instead.
//
// The tables, updates, merge and record live in the unsigned TableSketch
// core (sketch/table_sketch.h); this class adds the estimators.

#ifndef SKIMJOIN_SKETCH_COUNT_MIN_SKETCH_H_
#define SKIMJOIN_SKETCH_COUNT_MIN_SKETCH_H_

#include <cstdint>
#include <istream>
#include <utility>
#include <vector>

#include "sketch/table_sketch.h"
#include "util/estimate_report.h"
#include "util/status.h"

namespace skimjoin {
namespace sketch {

/// One Count-Min synopsis for one stream.
class CountMinSketch : public TableSketch<false> {
 public:
  /// Validates `config`; families deterministic in `seed` (see
  /// sketch_seed.h).
  static StatusOr<CountMinSketch> Create(const CountMinConfig& config,
                                         uint64_t seed);

  /// Reads a record written by SerializeTo. INVALID_ARGUMENT on a malformed
  /// or truncated record.
  static StatusOr<CountMinSketch> DeserializeFrom(std::istream& in);

  /// Point estimate: min over tables (an overestimate for insert-only
  /// streams).
  int64_t PointEstimate(uint64_t value) const;

  /// Inner-product estimate: min over tables of Σ_k C^F[j][k]·C^G[j][k]
  /// (an upper bound on the join size for insert-only streams).
  static StatusOr<double> EstimateJoinSize(const CountMinSketch& f,
                                           const CountMinSketch& g);

  /// Join estimation with provenance: the per-table product sums as copy
  /// estimates and the one-sided a-priori envelope F1(F)·F1(G)/b (expected
  /// single-table collision excess; F1 read exactly off one table's counter
  /// sum). Because the point answer is the MINIMUM over tables, the CI's
  /// lower edge is the estimate itself. `estimate` is bit-identical to
  /// EstimateJoinSize.
  static StatusOr<EstimateReport> EstimateJoinSizeWithReport(
      const CountMinSketch& f, const CountMinSketch& g);

  /// Total stream weight F1 (one table's counter sum — exact, since every
  /// update lands in exactly one bucket per table).
  double TotalWeight() const;

 private:
  explicit CountMinSketch(TableSketch core) : TableSketch(std::move(core)) {}

  /// Sequential min over per-table sums, 0.0 for an empty vector —
  /// reduction order matches the legacy loop so both paths agree bit-wise.
  static double MinOverTables(const std::vector<double>& per_table);
};

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_COUNT_MIN_SKETCH_H_
