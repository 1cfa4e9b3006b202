// The hash sketch data structure (§4.1 of the paper; structurally the
// COUNTSKETCH of Charikar–Chen–Farach-Colton '02).
//
// An array of `s` hash tables, each with `b` buckets holding one atomic-
// sketch counter. Table j carries a pairwise-independent bucket hash h_j and
// a four-wise-independent ±1 family ξ_j; an arrival (v, w) adds w·ξ_j(v) to
// bucket h_j(v) of every table — i.e., O(s) counter touches per element,
// logarithmic overall, versus the O(s1·s2) of basic AGMS sketching. The
// tables, updates, merge and record live in the signed TableSketch core
// (sketch/table_sketch.h); this class adds the estimators.
//
// The same structure serves three roles in this library:
//   * point (top-k / dense) frequency estimation — medians of ξ_j(v)·C[j][h_j(v)],
//   * the un-skimmed hash-sketch join estimator (a baseline; bucket-wise
//     products per table, median over tables),
//   * the substrate that core/skim.* skims dense frequencies out of, after
//     which it represents only residual ("sparse") frequencies.

#ifndef SKIMJOIN_SKETCH_HASH_SKETCH_H_
#define SKIMJOIN_SKETCH_HASH_SKETCH_H_

#include <cstdint>
#include <istream>
#include <utility>

#include "sketch/table_sketch.h"
#include "util/estimate_report.h"
#include "util/status.h"

namespace skimjoin {
namespace sketch {

/// ξ·counter for a sign ξ in {-1, +1} given as `negative`. The negation is
/// unsigned, so a counter of INT64_MIN wraps — as it does in the vector
/// lanes of sketch/point_scan.cc — instead of overflowing.
inline int64_t SignedCounter(bool negative, int64_t counter) {
  // Branch-free: signs are random, so a branch would mispredict half the
  // time. (c ^ m) - m is c for m = 0 and -c for m = all ones.
  const uint64_t mask = 0 - static_cast<uint64_t>(negative);
  return static_cast<int64_t>((static_cast<uint64_t>(counter) ^ mask) - mask);
}

/// One hash sketch for one stream. Copyable; copies are independent.
class HashSketch : public TableSketch<true> {
 public:
  /// Validates `config` (both dimensions >= 1, the shape within
  /// MaxDeserializeCounters()). Families are deterministic
  /// in `seed`: equal (config, seed) ⇒ compatible sketches with identical
  /// h_j and ξ_j — required for join estimation across two streams.
  static StatusOr<HashSketch> Create(const HashSketchConfig& config,
                                     uint64_t seed);

  /// Reads a record written by SerializeTo. INVALID_ARGUMENT on a
  /// malformed or truncated record.
  static StatusOr<HashSketch> DeserializeFrom(std::istream& in);

  /// Point frequency estimate for `value`: median over tables of
  /// ξ_j(value)·C[j][h_j(value)] (the COUNTSKETCH estimator used by
  /// SKIMDENSE, Fig. 3 step 5), MedianInt64's rule for an even table
  /// count. Allocation-free up to 32 tables. sketch::PointScan estimates
  /// whole ranges of values bit-identically.
  int64_t PointEstimate(uint64_t value) const;

  /// Join-size estimate WITHOUT skimming: for each table, the sum over
  /// buckets of C^F[j][k]·C^G[j][k]; median over tables. This is the
  /// sparse·sparse estimator of Fig. 4 (steps 3–7) and doubles as the
  /// "hash-sketch only" baseline. Returns INVALID_ARGUMENT for incompatible
  /// synopses.
  static StatusOr<double> EstimateJoinSize(const HashSketch& f,
                                           const HashSketch& g);

  /// Join estimation with provenance: the per-table bucket-product sums as
  /// copy estimates, their spread, an empirical confidence interval, and
  /// the a-priori envelope 4·sqrt(F̂2(F)·F̂2(G)/b) (the hash-sketch analogue
  /// of Theorem 1 — variance shrinks with buckets instead of averaged
  /// copies). `estimate` is bit-identical to EstimateJoinSize.
  static StatusOr<EstimateReport> EstimateJoinSizeWithReport(
      const HashSketch& f, const HashSketch& g);

  /// Self-join (F2) estimate: median over tables of Σ_k C[j][k]^2.
  double EstimateSelfJoinSize() const;

  /// Self-join provenance (the F = G case of EstimateJoinSizeWithReport);
  /// `estimate` bit-identical to EstimateSelfJoinSize.
  EstimateReport EstimateSelfJoinSizeWithReport() const;

 private:
  explicit HashSketch(TableSketch core) : TableSketch(std::move(core)) {}
};

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_HASH_SKETCH_H_
