// The table-of-buckets core under the hash sketch and Count-Min.
//
// `s` tables of `b` int64 counters, row-major by table. Table j carries a
// pairwise-independent bucket hash h_j; the signed core (HashSketch, §4.1)
// also carries a four-wise-independent ±1 family ξ_j, and an arrival (v, w)
// adds w·ξ_j(v) to bucket h_j(v) of every table. The unsigned core
// (CountMinSketch) adds w itself.
//
// The core owns everything the two families share: state, the plan-cache
// rule, the update kernels, the linear operations, the record and the
// accounting. Each family adds only its estimators (median vs. min point
// estimate, its join envelope), its name and its factories.

#ifndef SKIMJOIN_SKETCH_TABLE_SKETCH_H_
#define SKIMJOIN_SKETCH_TABLE_SKETCH_H_

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <type_traits>
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

/// A TableSketch's optional plan cache, which a copy does not take: the
/// copy starts without one and builds its own on its first update, so a
/// copy that never ingests (a skim's residual, a scratch copy) costs no
/// cache (~0.5 MiB at s = 7). A move keeps it.
class UncopiedPlanCache : public std::optional<hashing::HashPlanCache> {
 public:
  UncopiedPlanCache() = default;
  UncopiedPlanCache(const UncopiedPlanCache&)
      : std::optional<hashing::HashPlanCache>() {}
  UncopiedPlanCache(UncopiedPlanCache&&) = default;
  UncopiedPlanCache& operator=(const UncopiedPlanCache&) {
    reset();
    return *this;
  }
  UncopiedPlanCache& operator=(UncopiedPlanCache&&) = default;
};
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

/// Shape of a Count-Min sketch.
struct CountMinConfig {
  uint64_t num_tables = 5;
  uint64_t num_buckets = 256;

  uint64_t TotalCounters() const { return num_tables * num_buckets; }
};

/// The shared core: HashSketch is TableSketch<true>, CountMinSketch is
/// TableSketch<false>. Copyable; copies are independent.
template <bool kSigned>
class TableSketch {
 public:
  using Config = std::conditional_t<kSigned, HashSketchConfig, CountMinConfig>;

  /// Applies one stream arrival: one counter touched per table.
  void Update(uint64_t value, int64_t weight);

  void Update(const stream::StreamElement& element) {
    Update(element.value, element.weight);
  }

  /// Update without the plan cache: the scalar loop, counter-for-counter
  /// identical to Update. For the few updates of a sketch that otherwise
  /// only answers — a skim subtracting its dense values from a residual
  /// copy — which would pay more to build a cache than it saves.
  void UpdateUncached(uint64_t value, int64_t weight);

  /// Applies a batch of arrivals. Counter-for-counter identical to calling
  /// Update element by element (integer addition commutes). The kFast
  /// kernel blocks the batch: it hashes kBatchBlockSize elements into a
  /// reusable scratch plan array, then scatters table-major with prefetch
  /// (DESIGN.md §10); kReference runs a table-major scalar loop.
  void UpdateBatch(std::span<const stream::StreamElement> elements);

  /// Selects the update kernel (DESIGN.md §10); new sketches run kFast.
  /// Both are bit-identical on counters. Drops the plan cache, so hit/miss
  /// tallies restart from zero; kFast builds a new one on the next update.
  /// A copy runs its source's kernel but starts without a cache, which it
  /// builds on its first update.
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

  /// Counter-wise addition of a compatible sketch: merge(A, B) is
  /// bit-identical to having ingested both streams into one sketch.
  /// CHECK-fails unless CompatibleWith(other).
  void Merge(const TableSketch& other);

  /// Equal shape and seed, hence identical hash families.
  bool CompatibleWith(const TableSketch& other) const;

  /// The per-table copy estimates both families' join estimators reduce:
  /// copy j is Σ_k C^F[j][k]·C^G[j][k]. The skimmed estimator (core/) also
  /// reports its sparse⋈sparse sub-join with it. Pre-condition:
  /// f.CompatibleWith(g).
  static std::vector<double> PerTableJoinProducts(const TableSketch& f,
                                                  const TableSketch& g);

  /// Writes a self-describing text record (the family's tag, config, seed,
  /// counters) so the sketch can be shipped between processes/sites and
  /// merged remotely — hash families are rebuilt from (config, seed).
  Status SerializeTo(std::ostream& out) const;

  /// Read-only health probe: bucket-occupancy quantiles, |counter|
  /// order statistics with int32/int64 saturation headroom, and estimated
  /// collision pressure (see util::SynopsisHealth). Never mutates the
  /// sketch; runs at health/report time, not on the ingest path.
  SynopsisHealth HealthProbe() const;

  const Config& config() const { return config_; }
  uint64_t seed() const { return seed_; }

  /// Total footprint in bytes: the object plus counter array, hash family
  /// heap storage and any plan cache. Feeds the per-synopsis memory gauges.
  uint64_t MemoryBytes() const;

  // --- Low-level access used by the estimators, the skimmed sketch
  // --- (core/), sketch::SlimView and white-box tests.

  /// h_j(value), in [0, num_buckets).
  uint64_t Bucket(uint64_t table, uint64_t value) const {
    return bucket_hashes_[table](value);
  }

  /// ξ_j(value), in {-1, +1}.
  int64_t Sign(uint64_t table, uint64_t value) const
    requires kSigned
  {
    return sign_hashes_[table](value);
  }

  /// Table `table`'s families h_j and ξ_j, for the block point estimator
  /// (sketch/point_scan.h), which tabulates their polynomials.
  const hashing::BucketHash& bucket_hash(uint64_t table) const {
    return bucket_hashes_[table];
  }
  const hashing::SignHash& sign_hash(uint64_t table) const
    requires kSigned
  {
    return sign_hashes_[table];
  }

  /// Counter of `bucket` in `table`.
  int64_t Counter(uint64_t table, uint64_t bucket) const {
    return counters_[table * config_.num_buckets + bucket];
  }

  /// Raw counter array, row-major by table (num_tables * num_buckets).
  std::span<const int64_t> CounterArray() const { return counters_; }

  /// Monotone mutation epoch: bumped on every Update/UpdateBatch/Absorb/
  /// Merge/Reset. Derived state (like the plan cache): never serialized,
  /// ignored by CompatibleWith. Lets read-side caches (sketch::SlimView,
  /// the engine's cached point answers) detect "has this sketch changed
  /// since I looked?" in O(1) without hashing counters.
  uint64_t update_epoch() const { return update_epoch_; }

 protected:
  /// Draws the families from `seed` and runs kFast. Families are
  /// deterministic in `seed`: equal (config, seed) ⇒ compatible sketches.
  TableSketch(const Config& config, uint64_t seed);

  /// The families' Create: INVALID_ARGUMENT unless both dimensions >= 1
  /// and the shape fits MaxDeserializeCounters() (serial_limits.h).
  static StatusOr<TableSketch> Make(const Config& config, uint64_t seed);

  /// The families' DeserializeFrom: reads a record SerializeTo wrote,
  /// validating the untrusted dimensions before allocating counters.
  /// INVALID_ARGUMENT on a malformed or truncated record.
  static StatusOr<TableSketch> ReadRecord(std::istream& in);

 private:
  // Dyadic levels see only domain >> level distinct prefixes and size
  // their plan caches to match.
  friend class core::DyadicSkimmer;

  /// SetKernel with a plan cache of `cache_slots` slots.
  void SetKernel(Kernel kernel, uint64_t cache_slots);

  /// The kFast kernel over this sketch. Pre-condition: the plan cache is
  /// engaged.
  internal::PlanKernel<kSigned> FastKernel();

  /// Whether updates run the kFast kernels, building the plan cache on the
  /// first call that needs it.
  bool UsePlanCache();

  Config config_;
  uint64_t seed_;
  std::vector<hashing::BucketHash> bucket_hashes_;  // one per table
  std::vector<hashing::SignHash> sign_hashes_;      // one per table if signed
  std::vector<int64_t> counters_;                   // row-major by table
  Kernel kernel_ = Kernel::kFast;
  uint64_t update_epoch_ = 0;
  // Slots of the plan cache kFast updates build; 0 when updates run the
  // reference loops (kReference, or a bucket count a plan word cannot
  // hold).
  uint64_t plan_cache_slots_ = 0;
  // Derived acceleration state: never serialized, ignored by
  // CompatibleWith/Merge, and kept across Reset (plans depend only on the
  // hash families). Built by the first update, so a sketch that never
  // ingests — a deserialized delta, a merge target, a coordinator's
  // synopsis, a skim's residual copy — never pays for one.
  internal::UncopiedPlanCache plan_cache_;
};

// Defined in table_sketch.cc; every includer links the one copy.
extern template class TableSketch<true>;
extern template class TableSketch<false>;

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_TABLE_SKETCH_H_
