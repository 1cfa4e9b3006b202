// The skimmed-sketch join-size estimator (§4.3, Fig. 4 of the paper) — the
// library's primary public API.
//
// A SkimmedSketch maintains, in one pass over a stream of inserts and
// deletes, a level-0 hash sketch (and, optionally, the dyadic auxiliary
// sketches that make skimming domain-scan-free). Estimating COUNT(F ⋈ G)
// from two compatible SkimmedSketches:
//
//   1. skim the dense frequencies Ê_F, Ê_G out of (copies of) both level-0
//      sketches with SKIMDENSE,
//   2. compute the dense·dense subjoin exactly,
//   3. estimate dense·sparse and sparse·dense with ESTSUBJOINSIZE,
//   4. estimate sparse·sparse with the bucket-product estimator,
//   5. return the sum.
//
// Estimation never mutates the sketches (skimming happens on copies), so a
// sketch can keep absorbing stream elements after being queried.

#ifndef SKIMJOIN_CORE_SKIMMED_SKETCH_H_
#define SKIMJOIN_CORE_SKIMMED_SKETCH_H_

#include <algorithm>
#include <cstdint>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "core/dyadic_skim.h"
#include "core/skim.h"
#include "sketch/hash_sketch.h"
#include "stream/frequency_vector.h"
#include "stream/stream_element.h"
#include "util/estimate_report.h"
#include "util/status.h"

namespace skimjoin {
namespace core {

/// Configuration of a SkimmedSketch.
struct SkimmedSketchConfig {
  /// Stream domain [0, domain_size). Must be a power of two when
  /// use_dyadic_skim is set (dyadic intervals halve the domain per level).
  uint64_t domain_size = 1u << 16;

  /// s: hash tables in the level-0 sketch (odd keeps medians unambiguous).
  uint64_t num_tables = 7;

  /// b: buckets per level-0 table. The skimming threshold and the
  /// sparse-subjoin error both scale like 1/sqrt(b).
  uint64_t num_buckets = 512;

  /// Maintain the dyadic auxiliary sketches (O(s·log m) per element) so that
  /// skimming costs O((n/T)·log m) instead of a full domain scan. Accuracy
  /// benchmarks disable this and use the domain scan so that *all* counters
  /// at a given space budget go to the level-0 sketch.
  bool use_dyadic_skim = true;

  /// Buckets per auxiliary (level >= 1) table; 0 means num_buckets.
  uint64_t dyadic_num_buckets = 0;

  /// c in the skim threshold T = max(min_threshold,
  /// c·sqrt(max(F2̂, 0)/num_buckets)); F2̂ is the sketch's own self-join
  /// estimate. This is the Θ(n/sqrt(b)) scale of §4.2; the constant is an
  /// ablation knob (bench_ablation).
  double threshold_scale = 2.0;

  /// Floor for the skim threshold (values this frequent are never "dense"
  /// by less).
  int64_t min_threshold = 2;

  /// Dyadic search slack in (0, 1]: an interval is expanded when its
  /// estimate passes slack·T. Smaller improves dense-value recall at extra
  /// search cost.
  double recurse_slack = 0.5;

  /// Conservative-skim margin in [0, 1): a dense value's skimmed amount is
  /// its estimate minus skim_margin·T, keeping Ê ≤ f with high probability
  /// (the Theorem 4 variant) at the cost of extra residual mass. 0 (the
  /// default) skims the full estimate, exactly as in Fig. 3.
  double skim_margin = 0.0;
};

/// Carves a per-stream budget of `space_counters` counters into `config`'s
/// bucket counts over its num_tables tables. With use_dyadic_skim, half
/// the budget goes to level 0 and the other half is spread evenly over the
/// log2(domain_size) auxiliary levels; without it, level 0 gets all of it.
/// Every level keeps at least one bucket per table. INVALID_ARGUMENT when
/// domain_size < 2 or num_tables is 0.
Status SplitSpaceBudget(uint64_t space_counters, SkimmedSketchConfig* config);

/// Per-subjoin breakdown of one join-size estimate, for diagnostics,
/// examples and the benchmark tables.
struct JoinEstimateBreakdown {
  double dense_dense = 0.0;
  double dense_sparse = 0.0;
  double sparse_dense = 0.0;
  double sparse_sparse = 0.0;
  int64_t threshold_f = 0;
  int64_t threshold_g = 0;
  uint64_t dense_count_f = 0;
  uint64_t dense_count_g = 0;

  double Total() const {
    return dense_dense + dense_sparse + sparse_dense + sparse_sparse;
  }
};

/// One skimmed-sketch synopsis for one stream. Copyable.
class SkimmedSketch {
 public:
  /// Validates `config`; families derive from `seed`. Two sketches with
  /// equal (config, seed) are compatible for join estimation.
  static StatusOr<SkimmedSketch> Create(const SkimmedSketchConfig& config,
                                        uint64_t seed);

  /// Applies one stream arrival: O(num_tables) without dyadic maintenance,
  /// O(num_tables · log2(domain_size)) with it. An out-of-domain value is
  /// NOT an internal invariant — streams carry whatever the network
  /// delivers — so it is dropped and counted in dropped_updates() rather
  /// than aborting the process.
  void Update(uint64_t value, int64_t weight);

  void Update(const stream::StreamElement& element) {
    Update(element.value, element.weight);
  }

  /// Applies a batch of arrivals. Counter-for-counter identical to calling
  /// Update element by element, but hoists hash-family state out of the
  /// per-element loop and amortizes the dyadic-level traversal across the
  /// whole batch — the ingest fast path. Out-of-domain elements are dropped
  /// and counted exactly as in Update.
  void UpdateBatch(std::span<const stream::StreamElement> elements);

  /// Stream arrivals dropped because their value fell outside
  /// [0, domain_size). A nonzero count flags an upstream data problem; the
  /// estimates remain valid for the in-domain sub-stream.
  uint64_t dropped_updates() const { return dropped_updates_; }

  /// Selects the update kernel for the level-0 sketch and every sketched
  /// dyadic level (DESIGN.md §10); new sketches run kFast. Bit-identical
  /// either way; plan caches are rebuilt, restarting the hit/miss tallies.
  /// Level 0 sees at most domain_size distinct values, so its plan cache
  /// has at most that many slots (rounded up to a power of two).
  void SetKernel(sketch::Kernel kernel);

  sketch::Kernel kernel() const { return level0_.kernel(); }

  /// Plan-cache tallies summed over level 0 and the sketched dyadic levels;
  /// feed the `ingest.<stream>.hash_cache_*` engine metrics.
  uint64_t hash_cache_hits() const;
  uint64_t hash_cache_misses() const;

  /// Level 0 and every sketched dyadic level use `source`'s plan cache for
  /// that level from now on (sketch::TableSketch::AdoptPlanCache): the two
  /// sides of a join pair, whose hash families are equal, keep one cache
  /// per level. Pre-condition: CompatibleWith(source).
  void AdoptPlanCache(SkimmedSketch& source);

  /// Bytes of the plan caches this sketch shares with `other`, so a pair
  /// counts them once.
  uint64_t PlanCacheBytesSharedWith(const SkimmedSketch& other) const;

  /// Zeroes every counter and the dropped-update count, returning the
  /// sketch to its freshly created state (hash families untouched).
  void Reset();

  /// Folds a whole frequency vector in (linearity).
  void Absorb(const stream::FrequencyVector& frequencies);

  /// Merges a compatible sketch (summarizes the concatenated streams).
  /// Pre-condition: CompatibleWith(other).
  void Merge(const SkimmedSketch& other);

  /// The full ESTSKIMJOINSIZE estimate of COUNT(F ⋈ G). INVALID_ARGUMENT
  /// for incompatible synopses.
  static StatusOr<double> EstimateJoinSize(const SkimmedSketch& f,
                                           const SkimmedSketch& g);

  /// As EstimateJoinSize, but returns the per-subjoin breakdown.
  static StatusOr<JoinEstimateBreakdown> EstimateJoinSizeDetailed(
      const SkimmedSketch& f, const SkimmedSketch& g);

  /// ESTSKIMJOINSIZE with full provenance: per-table copy estimates
  /// (dense·dense plus table j's share of each estimated sub-join), the
  /// complete skim diagnostics (thresholds, dense counts, residual L2 mass
  /// before/after skimming, sub-join contributions), and the §3.2 a-priori
  /// envelope — the sum of the three estimated sub-joins' error terms,
  /// (4/sqrt(b))·(sqrt(F̂2(Ê_F)·F̂2(r_G)) + sqrt(F̂2(r_F)·F̂2(Ê_G)) +
  /// sqrt(F̂2(r_F)·F̂2(r_G))), which collapses to the paper's
  /// ε·(self-join product)^(1/2) with residual norms in place of full ones.
  /// `estimate` is bit-identical to EstimateJoinSize.
  static StatusOr<EstimateReport> EstimateJoinSizeWithReport(
      const SkimmedSketch& f, const SkimmedSketch& g);

  /// Self-join (F2) estimate with skimming — the F = G special case.
  double EstimateSelfJoinSize() const;

  /// Self-join provenance (the F = G case of EstimateJoinSizeWithReport);
  /// `estimate` bit-identical to EstimateSelfJoinSize.
  EstimateReport EstimateSelfJoinSizeWithReport() const;

  /// COUNTSKETCH point estimate of one value's frequency.
  int64_t EstimatePointFrequency(uint64_t value) const {
    return level0_.PointEstimate(value);
  }

  /// Estimated total frequency of the value range [lo, hi] (inclusive),
  /// answered from the canonical dyadic cover — O(log m) interval point
  /// estimates instead of hi−lo+1 value estimates. Requires
  /// use_dyadic_skim; FAILED_PRECONDITION otherwise. OUT_OF_RANGE when the
  /// range leaves the domain; INVALID_ARGUMENT when lo > hi.
  StatusOr<int64_t> EstimateRangeFrequency(uint64_t lo, uint64_t hi) const;

  /// Estimated φ-quantile of the stream's value distribution: the smallest
  /// value v whose estimated prefix frequency [0, v] reaches φ·n (n taken
  /// from the top dyadic level). Binary descent over the dyadic tree,
  /// O(log m) point estimates. Requires use_dyadic_skim and insert-dominated
  /// streams (n > 0); pre-condition 0 < phi <= 1.
  StatusOr<uint64_t> EstimateQuantile(double phi) const;

  /// All values estimated at |frequency| >= threshold, with their estimates
  /// (the skim step exposed as a heavy-hitter query; does not mutate the
  /// sketch). Pre-condition: threshold >= 1.
  DenseFrequencies HeavyHitters(int64_t threshold) const;

  /// The data-adaptive skim threshold T the estimator would use right now.
  int64_t SkimThreshold() const;

  bool CompatibleWith(const SkimmedSketch& other) const;

  /// Writes a self-describing text record (config, seed, all counters) so
  /// per-site synopses can be shipped to a coordinator, deserialized,
  /// merged, and joined — the distributed-monitoring deployment the
  /// paper's introduction motivates. See examples/distributed_merge.cpp.
  Status SerializeTo(std::ostream& out) const;

  /// Reads a record written by SerializeTo.
  static StatusOr<SkimmedSketch> DeserializeFrom(std::istream& in);

  const SkimmedSketchConfig& config() const { return config_; }
  uint64_t seed() const { return seed_; }

  /// Total counters held, including any dyadic auxiliary levels (the space
  /// the benches account for).
  uint64_t TotalCounters() const;

  /// Total footprint in bytes (level-0 sketch, dyadic levels, hash
  /// families). Feeds the per-synopsis memory gauges.
  uint64_t MemoryBytes() const;

  /// The level-0 sketch. Exposed for white-box tests.
  const sketch::HashSketch& level0() const { return level0_; }

  /// Monotone mutation epoch, forwarded from the level-0 sketch (every
  /// answer-changing mutation touches level 0). Derived state — never
  /// serialized, ignored by CompatibleWith. Read-side caches use it to
  /// detect staleness in O(1); see sketch::SlimView and the engine's
  /// cached point answers (DESIGN.md §11).
  uint64_t update_epoch() const { return level0_.update_epoch(); }

  /// Result of skimming a COPY of the level-0 sketch: the dense vector, the
  /// residual ("sparse") sketch, and the threshold used. The slim half of
  /// the skimmed-join read path (DESIGN.md §11): skim once per refresh,
  /// reuse across every join until the fat sketch's epoch advances.
  struct SkimOutput {
    DenseFrequencies dense;
    sketch::HashSketch skimmed;
    int64_t threshold;
  };

  /// SKIMDENSE on a copy; the sketch itself is never mutated.
  SkimOutput Skim() const;

  /// Read-only health probe: the level-0 counter probe (occupancy,
  /// saturation headroom, collision pressure) plus a fresh skim's dense
  /// fraction (|dense| / domain) and residual ratio (residual L2 / level-0
  /// L2). When a reporting estimate has run, the skim fields recorded at
  /// that SKIMDENSE time ride along so drift since the last estimate is
  /// visible. Runs SKIMDENSE on a copy — estimate-priced, not
  /// ingest-priced — and never updates the recorded baseline.
  SynopsisHealth HealthProbe() const;

  /// HealthProbe as of the last reporting estimate, read from the skim that
  /// estimate made instead of a new SKIMDENSE: the fresh skim fields are
  /// the recorded ones. Valid right after EstimateJoinSizeWithReport on an
  /// unchanged sketch, where it equals HealthProbe() bit for bit.
  SynopsisHealth HealthProbeAtEstimate() const;

  /// Probe of the dyadic auxiliary levels; std::nullopt when
  /// use_dyadic_skim is off. See DyadicSkimmer::HealthProbe.
  std::optional<SynopsisHealth> DyadicHealthProbe() const;

  /// ESTSKIMJOINSIZE from two precomputed skims. Because each side's skim
  /// is computed independently of the other (Skim() takes no cross-side
  /// input), this is bit-identical to EstimateJoinSize on the fat pair as
  /// of the epochs the skims were taken at. INVALID_ARGUMENT when the
  /// residual sketches are incompatible.
  static StatusOr<double> EstimateJoinSizeFromSkims(const SkimOutput& skim_f,
                                                    const SkimOutput& skim_g);

 private:
  /// Runs level 0 on kFast with Level0CacheSlots().
  SkimmedSketch(const SkimmedSketchConfig& config, uint64_t seed,
                sketch::HashSketch level0, std::optional<DyadicSkimmer> dyadic);

  /// Level 0's plan-cache slots: no more than the values it can see.
  uint64_t Level0CacheSlots() const {
    return std::min(sketch::kPlanCacheSlots, config_.domain_size);
  }

  /// The per-table sub-join vectors behind one breakdown, kept so the
  /// report path can derive its copy estimates from the same intermediates.
  struct SubJoinTables {
    std::vector<double> dense_sparse;
    std::vector<double> sparse_dense;
    std::vector<double> sparse_sparse;
  };

  /// Steps 2–5 of ESTSKIMJOINSIZE from two precomputed skims. Every entry
  /// point (Detailed, WithReport, FromSkims) reduces to this one function,
  /// which is what keeps them mutually bit-identical. `tables`, when
  /// non-null, receives the per-table vectors.
  static JoinEstimateBreakdown BreakdownFromSkims(const SkimOutput& skim_f,
                                                  const SkimOutput& skim_g,
                                                  SubJoinTables* tables);

  /// Shared core of Detailed / WithReport estimation: computes the
  /// breakdown from per-table sub-join vectors and, when `report` is
  /// non-null, fills its copy estimates, skim diagnostics, and a-priori
  /// bound from the same intermediates (keeping both paths bit-identical).
  static StatusOr<JoinEstimateBreakdown> EstimateDetailedImpl(
      const SkimmedSketch& f, const SkimmedSketch& g, EstimateReport* report);

  SkimmedSketchConfig config_;
  uint64_t seed_;
  sketch::HashSketch level0_;
  std::optional<DyadicSkimmer> dyadic_;
  uint64_t dropped_updates_ = 0;
  // Skim shape recorded by the last REPORTING estimate (EstimateDetailedImpl
  // with a report), read back by HealthProbe to expose drift since that
  // estimate. Derived observability state: mutable because the estimate
  // entry points take const sketches, never serialized, ignored by
  // CompatibleWith, NaN until a reporting estimate runs.
  mutable double dense_fraction_at_estimate_ =
      std::numeric_limits<double>::quiet_NaN();
  mutable double residual_ratio_at_estimate_ =
      std::numeric_limits<double>::quiet_NaN();
};

}  // namespace core
}  // namespace skimjoin

#endif  // SKIMJOIN_CORE_SKIMMED_SKETCH_H_
