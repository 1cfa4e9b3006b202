// A uniform interface over every join-size estimation method in the
// library, so that the query engine and the benchmark harness can swap
// methods at equal space budgets. A *pair* bundles the two per-stream
// synopses because every method requires them to share hash families
// (constructed from a common seed).

#ifndef SKIMJOIN_CORE_JOIN_ESTIMATORS_H_
#define SKIMJOIN_CORE_JOIN_ESTIMATORS_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sketch/partitioned_agms.h"
#include "stream/frequency_vector.h"
#include "stream/stream_element.h"
#include "util/estimate_report.h"
#include "util/status.h"

namespace skimjoin {
namespace core {

/// The estimation methods available.
enum class EstimatorKind {
  /// Basic AGMS sketching, ESTJOINSIZE of [Alon et al. '99] — the paper's
  /// baseline. O(space) per element.
  kAgms,
  /// Un-skimmed hash-sketch estimation (bucket products; "Fast-AGMS").
  /// O(num_tables) per element.
  kHashSketch,
  /// The paper's skimmed-sketch estimator (ESTSKIMJOINSIZE).
  kSkimmedSketch,
  /// Count-Min inner product (upper bound for insert-only streams).
  kCountMin,
  /// Reservoir-sample join estimate (insert-only; the sampling strawman).
  kSampling,
  /// Domain-partitioned AGMS [Dobra et al. '02]; requires
  /// EstimatorSpec::partition_plan (built from a-priori frequency
  /// statistics — the requirement the skimmed-sketch method removes).
  kPartitionedAgms,
};

/// Short stable name for reports ("agms", "skimmed", ...).
const char* EstimatorKindName(EstimatorKind kind);

/// How to build a pair of synopses for one (F, G) join query.
struct EstimatorSpec {
  EstimatorKind kind = EstimatorKind::kSkimmedSketch;

  /// Stream domain [0, domain_size).
  uint64_t domain_size = 1u << 16;

  /// Per-stream space budget in counters ("words"); each method carves its
  /// structure out of this.
  uint64_t space_counters = 4096;

  /// kAgms: the number of medians s2 (s1 = space / s2).
  uint64_t agms_num_medians = 5;

  /// kHashSketch / kSkimmedSketch / kCountMin: number of tables s
  /// (buckets = space / s).
  uint64_t num_tables = 7;

  /// kSkimmedSketch: forwarded tuning knobs (see SkimmedSketchConfig).
  double threshold_scale = 2.0;
  double recurse_slack = 0.5;
  double skim_margin = 0.0;
  /// When true the skimmed sketch maintains dyadic levels INSIDE the space
  /// budget: level 0 gets space/2, the auxiliary levels split the rest.
  /// When false (default here) skimming scans the domain and all space goes
  /// to level 0 — the configuration the accuracy benchmarks use.
  bool skimmed_use_dyadic = false;

  /// kPartitionedAgms: the plan (boundaries + per-partition shapes) built
  /// by sketch::PlanPartitions from a-priori statistics. Its space is used
  /// as-is (space_counters is ignored for this kind).
  std::shared_ptr<const sketch::PartitionPlan> partition_plan;
};

/// Two synopses (for streams F and G) plus the estimation entry point.
class JoinEstimatorPair {
 public:
  virtual ~JoinEstimatorPair() = default;

  JoinEstimatorPair(const JoinEstimatorPair&) = delete;
  JoinEstimatorPair& operator=(const JoinEstimatorPair&) = delete;

  /// Applies one arrival to the F-side / G-side synopsis.
  virtual void UpdateF(uint64_t value, int64_t weight) = 0;
  virtual void UpdateG(uint64_t value, int64_t weight) = 0;

  void UpdateF(const stream::StreamElement& e) { UpdateF(e.value, e.weight); }
  void UpdateG(const stream::StreamElement& e) { UpdateG(e.value, e.weight); }

  /// Folds whole frequency vectors in (linearity; see AgmsSketch::Absorb).
  /// The sampling estimator overrides this to expand to unit inserts, since
  /// a sample is not a linear synopsis.
  virtual void AbsorbF(const stream::FrequencyVector& frequencies);
  virtual void AbsorbG(const stream::FrequencyVector& frequencies);

  /// The COUNT(F ⋈ G) estimate from the current synopses.
  virtual StatusOr<double> Estimate() const = 0;

  /// The same estimate with provenance (per-copy estimates, spread,
  /// empirical CI, a-priori envelope, skim diagnostics where applicable)
  /// and the synopses' health probes as of this estimate (`health`, as
  /// HealthProbe() would return them); `estimate` is bit-identical to
  /// Estimate(). The default wraps
  /// Estimate() in a minimal report (no copies, degenerate CI) for methods
  /// without per-copy structure (sampling, partitioned AGMS); the sketch-
  /// backed pairs override it with their family's *WithReport variant.
  virtual StatusOr<EstimateReport> EstimateWithReport() const;

  /// Actual counters allocated per stream (>= spec.space_counters rounding
  /// aside; reported by the benches).
  virtual uint64_t SpaceCounters() const = 0;

  /// Total footprint in bytes of both synopses (heap included). Feeds the
  /// per-query memory gauges.
  virtual uint64_t MemoryBytes() const = 0;

  /// EstimatorKindName of the concrete method.
  virtual const char* Name() const = 0;

  /// Writes both synopses as one self-describing text record so the pair
  /// can be checkpointed. Default: UNIMPLEMENTED — the sampling and
  /// partitioned-AGMS methods do not support serialization (checkpointing
  /// lists them as unsupported rather than silently skipping them).
  virtual Status SerializeTo(std::ostream& out) const;

  /// Replaces the synopses with the state in a record written by
  /// SerializeTo for a pair of the same spec and seed. INVALID_ARGUMENT
  /// when the record's method, shape or seed disagrees with this pair.
  virtual Status RestoreFrom(std::istream& in);

  /// Adds the synopses in such a record counter-for-counter (sketch
  /// linearity): merging shard-local records is bit-identical to having
  /// ingested all the shards' arrivals into one pair. Errors as
  /// RestoreFrom; both are UNIMPLEMENTED for the methods that do not
  /// serialize (sampling, partitioned AGMS).
  virtual Status MergeFrom(std::istream& in);

  /// Read-only health probes of both synopses, F first (role "f") then G
  /// (role "g"). Default: empty — the sampling and partitioned-AGMS methods
  /// have no counter arrays to probe. Never affects estimates.
  virtual std::vector<SynopsisHealth> HealthProbe() const { return {}; }

 protected:
  JoinEstimatorPair() = default;
};

/// Builds the synopsis pair described by `spec`, with all hash families
/// derived from `seed`. INVALID_ARGUMENT when the spec is inconsistent
/// (e.g., space too small for the requested shape).
StatusOr<std::unique_ptr<JoinEstimatorPair>> CreateJoinEstimatorPair(
    const EstimatorSpec& spec, uint64_t seed);

}  // namespace core
}  // namespace skimjoin

#endif  // SKIMJOIN_CORE_JOIN_ESTIMATORS_H_
