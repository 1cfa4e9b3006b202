// The hash sketch data structure (§4.1 of the paper; structurally the
// COUNTSKETCH of Charikar–Chen–Farach-Colton '02).
//
// An array of `s` hash tables, each with `b` buckets holding one atomic-
// sketch counter. Table j carries a pairwise-independent bucket hash h_j and
// a four-wise-independent ±1 family ξ_j; an arrival (v, w) adds w·ξ_j(v) to
// bucket h_j(v) of every table — i.e., O(s) counter touches per element,
// logarithmic overall, versus the O(s1·s2) of basic AGMS sketching.
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
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "hashing/hash_plan_cache.h"
#include "hashing/kwise_hash.h"
#include "hashing/sign_hash.h"
#include "sketch/kernel.h"
#include "stream/frequency_vector.h"
#include "stream/stream_element.h"
#include "util/estimate_report.h"
#include "util/status.h"

namespace skimjoin {
namespace core {
class DyadicSkimmer;
}  // namespace core

namespace sketch {
namespace internal {
template <bool kSigned>
class PlanKernel;
}  // namespace internal

/// Shape of a hash sketch.
struct HashSketchConfig {
  /// s: number of hash tables (confidence booster; odd keeps medians crisp).
  uint64_t num_tables = 7;
  /// b: buckets per table (accuracy: estimation error scales with 1/sqrt(b)).
  uint64_t num_buckets = 256;

  /// Total counters ("space in words").
  uint64_t TotalCounters() const { return num_tables * num_buckets; }
};

/// One hash sketch for one stream. Copyable; copies are independent.
class HashSketch {
 public:
  /// Validates `config` (both dimensions >= 1). Families are deterministic
  /// in `seed`: equal (config, seed) ⇒ compatible sketches with identical
  /// h_j and ξ_j — required for join estimation across two streams.
  static StatusOr<HashSketch> Create(const HashSketchConfig& config,
                                     uint64_t seed);

  /// Applies one stream arrival: one counter touched per table.
  void Update(uint64_t value, int64_t weight);

  void Update(const stream::StreamElement& element) {
    Update(element.value, element.weight);
  }

  /// Applies a batch of arrivals. Counter-for-counter identical to calling
  /// Update element by element (integer addition commutes). The kFast
  /// kernel blocks the batch: it hashes kBatchBlockSize elements into a
  /// reusable scratch plan array, then scatters table-major with prefetch
  /// (DESIGN.md §10); kReference runs a table-major scalar loop.
  void UpdateBatch(std::span<const stream::StreamElement> elements);

  /// Selects the update kernel (DESIGN.md §10); new sketches run kFast.
  /// Both are bit-identical on counters. Drops the plan cache, so hit/miss
  /// tallies restart from zero; kFast builds a new one on the next update.
  void SetKernel(Kernel kernel) { SetKernel(kernel, kPlanCacheSlots); }

  Kernel kernel() const { return kernel_; }

  /// Plan-cache hit/miss tallies since the cache was (re)built; both zero
  /// under kReference. Feed the `ingest.<stream>.hash_cache_*` engine
  /// metrics.
  uint64_t hash_cache_hits() const {
    return plan_cache_ ? plan_cache_->hits() : 0;
  }
  uint64_t hash_cache_misses() const {
    return plan_cache_ ? plan_cache_->misses() : 0;
  }

  /// Zeroes every counter, returning the sketch to its freshly created
  /// state (hash families are untouched). Used by the concurrent ingestor
  /// to recycle worker replicas between propagations.
  void Reset();

  /// Folds a whole frequency vector in (linearity; see AgmsSketch::Absorb).
  void Absorb(const stream::FrequencyVector& frequencies);

  /// Merges a compatible sketch (concatenation of streams).
  /// Pre-condition: CompatibleWith(other).
  void Merge(const HashSketch& other);

  /// Point frequency estimate for `value`: median over tables of
  /// ξ_j(value)·C[j][h_j(value)] (the COUNTSKETCH estimator used by
  /// SKIMDENSE, Fig. 3 step 5).
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

  /// The per-table copy estimates behind EstimateJoinSize (copy j is
  /// Σ_k C^F[j][k]·C^G[j][k]). Exposed so the skimmed estimator (core/) can
  /// report its sparse⋈sparse sub-join per table; also used by white-box
  /// tests. Pre-condition: f.CompatibleWith(g).
  static std::vector<double> PerTableJoinProducts(const HashSketch& f,
                                                  const HashSketch& g);

  /// Self-join (F2) estimate: median over tables of Σ_k C[j][k]^2.
  double EstimateSelfJoinSize() const;

  /// Self-join provenance (the F = G case of EstimateJoinSizeWithReport);
  /// `estimate` bit-identical to EstimateSelfJoinSize.
  EstimateReport EstimateSelfJoinSizeWithReport() const;

  bool CompatibleWith(const HashSketch& other) const;

  /// Writes a self-describing text record (config, seed, counters) so the
  /// sketch can be shipped between processes/sites and merged remotely —
  /// hash families are reconstructed from (config, seed) on the other end.
  Status SerializeTo(std::ostream& out) const;

  /// Reads a record written by SerializeTo. INVALID_ARGUMENT on a
  /// malformed or truncated record.
  static StatusOr<HashSketch> DeserializeFrom(std::istream& in);

  /// Read-only health probe: bucket-occupancy quantiles, |counter|
  /// order statistics with int32/int64 saturation headroom, and estimated
  /// collision pressure (see util::SynopsisHealth). Never mutates the
  /// sketch; runs at health/report time, not on the ingest path.
  SynopsisHealth HealthProbe() const;

  const HashSketchConfig& config() const { return config_; }
  uint64_t seed() const { return seed_; }

  /// Total footprint in bytes: the object plus counter array and hash
  /// family heap storage. Feeds the per-synopsis memory gauges.
  uint64_t MemoryBytes() const;

  // --- Low-level access used by the skimmed-sketch estimator (core/) and
  // --- white-box tests.

  /// h_j(value), in [0, num_buckets).
  uint64_t Bucket(uint64_t table, uint64_t value) const {
    return bucket_hashes_[table](value);
  }

  /// ξ_j(value), in {-1, +1}.
  int64_t Sign(uint64_t table, uint64_t value) const {
    return sign_hashes_[table](value);
  }

  /// Counter of `bucket` in `table`.
  int64_t Counter(uint64_t table, uint64_t bucket) const {
    return counters_[table * config_.num_buckets + bucket];
  }

  /// Raw counter array, row-major by table (num_tables * num_buckets).
  /// Read-only substrate for sketch::SlimView refreshes.
  std::span<const int64_t> CounterArray() const { return counters_; }

  /// Monotone mutation epoch: bumped on every Update/UpdateBatch/Absorb/
  /// Merge/Reset. Derived state (like the plan cache): never serialized,
  /// ignored by CompatibleWith. Lets read-side caches (sketch::SlimView,
  /// the engine's cached point answers) detect "has this sketch changed
  /// since I looked?" in O(1) without hashing counters.
  uint64_t update_epoch() const { return update_epoch_; }

 private:
  // Dyadic levels see only domain >> level distinct prefixes and size
  // their plan caches to match.
  friend class core::DyadicSkimmer;

  HashSketch(const HashSketchConfig& config, uint64_t seed);

  /// SetKernel with a plan cache of `cache_slots` slots.
  void SetKernel(Kernel kernel, uint64_t cache_slots);

  /// The kFast kernel over this sketch. Pre-condition: the plan cache is
  /// engaged.
  internal::PlanKernel<true> FastKernel();

  /// Whether updates run the kFast kernels, building the plan cache on the
  /// first call that needs it.
  bool UsePlanCache();

  HashSketchConfig config_;
  uint64_t seed_;
  std::vector<hashing::BucketHash> bucket_hashes_;  // one per table
  std::vector<hashing::SignHash> sign_hashes_;      // one per table
  std::vector<int64_t> counters_;                   // row-major by table
  Kernel kernel_ = Kernel::kFast;
  uint64_t update_epoch_ = 0;
  // Slots of the plan cache kFast updates build; 0 when updates run the
  // reference loops (kReference, or more than 2^31 buckets: plan words
  // pack the bucket in 31 bits).
  uint64_t plan_cache_slots_ = 0;
  // Derived acceleration state: never serialized, ignored by
  // CompatibleWith/Merge, and kept across Reset (plans depend only on the
  // hash families). Built by the first update, so a sketch that never
  // ingests — a deserialized delta, a merge target, a coordinator's
  // synopsis — never pays for one.
  std::optional<hashing::HashPlanCache> plan_cache_;
};

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_HASH_SKETCH_H_
