// Count-Min sketch [Cormode–Muthukrishnan '04], included as an additional
// point-estimation / join-size baseline for the ablation benchmarks.
//
// Same table-of-buckets layout as the hash sketch but without ±1 signs:
// counters only ever accumulate |weight| contributions of colliding values,
// so point estimates are one-sided overestimates (min over tables) and the
// inner-product estimate is an upper bound in insert-only streams. With
// deletions the one-sided guarantee disappears — one of the reasons the
// paper's estimators are built on ±1 atomic sketches instead.

#ifndef SKIMJOIN_SKETCH_COUNT_MIN_SKETCH_H_
#define SKIMJOIN_SKETCH_COUNT_MIN_SKETCH_H_

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "hashing/hash_plan_cache.h"
#include "hashing/kwise_hash.h"
#include "sketch/kernel.h"
#include "stream/frequency_vector.h"
#include "stream/stream_element.h"
#include "util/estimate_report.h"
#include "util/status.h"

namespace skimjoin {
namespace sketch {
namespace internal {
template <bool kSigned>
class PlanKernel;
}  // namespace internal

/// Shape of a Count-Min sketch.
struct CountMinConfig {
  uint64_t num_tables = 5;
  uint64_t num_buckets = 256;

  uint64_t TotalCounters() const { return num_tables * num_buckets; }
};

/// One Count-Min synopsis for one stream.
class CountMinSketch {
 public:
  /// Validates `config`; families deterministic in `seed` (see
  /// sketch_seed.h).
  static StatusOr<CountMinSketch> Create(const CountMinConfig& config,
                                         uint64_t seed);

  /// O(num_tables) counter touches.
  void Update(uint64_t value, int64_t weight);

  void Update(const stream::StreamElement& element) {
    Update(element.value, element.weight);
  }

  /// Applies a batch of arrivals; counter-for-counter identical to scalar
  /// Update calls. Blocked hash→scatter under kFast (see
  /// HashSketch::UpdateBatch and DESIGN.md §10), a table-major scalar loop
  /// under kReference.
  void UpdateBatch(std::span<const stream::StreamElement> elements);

  /// Selects the update kernel (bit-identical; DESIGN.md §10). Drops the
  /// plan cache, so hit/miss tallies restart from zero; kFast builds a new
  /// one on the next update.
  void SetKernel(Kernel kernel);

  Kernel kernel() const { return kernel_; }

  /// Plan-cache tallies (zero under kReference).
  uint64_t hash_cache_hits() const {
    return plan_cache_ ? plan_cache_->hits() : 0;
  }
  uint64_t hash_cache_misses() const {
    return plan_cache_ ? plan_cache_->misses() : 0;
  }

  /// Zeroes every counter (families untouched).
  void Reset();

  void Absorb(const stream::FrequencyVector& frequencies);

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

  bool CompatibleWith(const CountMinSketch& other) const;

  /// Counter-wise addition of a compatible sketch (same shape and seed):
  /// merge(A, B) is bit-identical to having ingested both streams into one
  /// sketch. CHECK-fails on incompatible sketches.
  void Merge(const CountMinSketch& other);

  /// Writes a self-describing text record (config, seed, counters); hash
  /// families are reconstructed from (config, seed) on deserialization.
  Status SerializeTo(std::ostream& out) const;

  /// Reads a record written by SerializeTo. INVALID_ARGUMENT on a malformed
  /// or truncated record.
  static StatusOr<CountMinSketch> DeserializeFrom(std::istream& in);

  /// Read-only health probe (occupancy, |counter| quantiles, saturation
  /// headroom, collision pressure); see HashSketch::HealthProbe.
  SynopsisHealth HealthProbe() const;

  const CountMinConfig& config() const { return config_; }
  uint64_t seed() const { return seed_; }

  /// Total footprint in bytes: the object plus counter array and hash
  /// family heap storage. Feeds the per-synopsis memory gauges.
  uint64_t MemoryBytes() const;

  /// Raw counter array, row-major by table. Read-only substrate for
  /// sketch::SlimView refreshes.
  std::span<const int64_t> CounterArray() const { return counters_; }

  /// h_j(value), in [0, num_buckets); used by SlimView point estimates.
  uint64_t Bucket(uint64_t table, uint64_t value) const {
    return bucket_hashes_[table](value);
  }

  /// Monotone mutation epoch; see HashSketch::update_epoch (derived state,
  /// never serialized, bumped on every mutator including Reset).
  uint64_t update_epoch() const { return update_epoch_; }

 private:
  CountMinSketch(const CountMinConfig& config, uint64_t seed);

  /// The per-table copy estimates both estimation entry points reduce:
  /// copy j is Σ_k C^F[j][k]·C^G[j][k]. Pre-condition: f.CompatibleWith(g).
  static std::vector<double> PerTableProducts(const CountMinSketch& f,
                                              const CountMinSketch& g);

  /// Sequential min over per-table sums, 0.0 for an empty vector —
  /// reduction order matches the legacy loop so both paths agree bit-wise.
  static double MinOverTables(const std::vector<double>& per_table);

  /// The kFast kernel over this sketch (no sign families: plan words are
  /// bare buckets). Pre-condition: the plan cache is engaged.
  internal::PlanKernel<false> FastKernel();

  /// Whether updates run the kFast kernels (under kFast with at most 2^32
  /// buckets), building the plan cache on the first call that needs it.
  bool UsePlanCache();

  CountMinConfig config_;
  uint64_t seed_;
  std::vector<hashing::BucketHash> bucket_hashes_;
  std::vector<int64_t> counters_;
  Kernel kernel_ = Kernel::kFast;
  uint64_t update_epoch_ = 0;
  // Derived acceleration state; see HashSketch for the contract (never
  // serialized, survives Reset, built by the first update that runs the
  // kFast kernels).
  std::optional<hashing::HashPlanCache> plan_cache_;
};

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_COUNT_MIN_SKETCH_H_
