// Query descriptors for the stream query-processing engine (Fig. 1 of the
// paper): binary-join COUNT/SUM aggregates, self-joins, point-frequency and
// heavy-hitter lookups, each with optional selection predicates that filter
// elements before they reach the synopses (§2.1).

#ifndef SKIMJOIN_QUERY_QUERY_H_
#define SKIMJOIN_QUERY_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/join_estimators.h"

namespace skimjoin {
namespace query {

/// Opaque handles returned by the engine.
using StreamId = uint64_t;
using QueryId = uint64_t;

/// The largest id a query gets. Ids count up from 1 and never wrap: no
/// engine registers 2^63 queries, so the cap only stops a corrupt or
/// hostile checkpoint's next id from running the counter past 2^64 and
/// onto ids in use.
inline constexpr QueryId kMaxQueryId = (QueryId{1} << 63) - 1;

/// A registered stream: a name and its value domain.
struct StreamSpec {
  std::string name;
  uint64_t domain_size = 1u << 16;
};

/// Inclusive value-range selection predicate, applied to an element before
/// it updates a query's synopsis ("we simply drop from the streams elements
/// that do not satisfy the predicates", §2.1).
struct RangePredicate {
  uint64_t lo = 0;
  uint64_t hi = UINT64_MAX;

  bool Matches(uint64_t value) const { return value >= lo && value <= hi; }
};

/// Which per-element weight a synopsis consumes. kCount yields COUNT
/// aggregates; kMeasure turns the same machinery into SUM over the
/// element's measure attribute (SUM = COUNT with elements repeated
/// measure-many times, §2.1).
enum class AggregateInput {
  kCount,
  kMeasure,
};

/// AGG(F ⋈ G): a binary-join aggregate between two registered streams.
struct JoinQuerySpec {
  std::string left_stream;
  std::string right_stream;

  /// Estimation method and space budget. The spec's domain_size is filled
  /// in by the engine from the registered streams.
  core::EstimatorSpec estimator;

  AggregateInput left_input = AggregateInput::kCount;
  AggregateInput right_input = AggregateInput::kCount;

  std::optional<RangePredicate> left_predicate;
  std::optional<RangePredicate> right_predicate;
};

/// AGG(F ⋈ F): self-join (second moment) over one stream.
struct SelfJoinQuerySpec {
  std::string stream;
  core::EstimatorSpec estimator;
  AggregateInput input = AggregateInput::kCount;
  std::optional<RangePredicate> predicate;
};

/// The join spec a self-join registers as: left and right are one stream.
inline JoinQuerySpec AsJoinQuerySpec(const SelfJoinQuerySpec& spec) {
  return {.left_stream = spec.stream,
          .right_stream = spec.stream,
          .estimator = spec.estimator,
          .left_input = spec.input,
          .right_input = spec.input,
          .left_predicate = spec.predicate,
          .right_predicate = spec.predicate};
}

/// Point-frequency / heavy-hitter tracking over one stream, answered from a
/// skimmed sketch.
struct FrequencyQuerySpec {
  std::string stream;
  /// Counters for the level-0 sketch.
  uint64_t space_counters = 4096;
  uint64_t num_tables = 7;
  /// Maintain dyadic levels so heavy-hitter answers need no domain scan.
  bool use_dyadic = true;
  std::optional<RangePredicate> predicate;
};

/// COUNT DISTINCT over one stream (Flajolet–Martin synopsis).
struct DistinctCountQuerySpec {
  std::string stream;
  /// Bit maps in the FM synopsis (standard error ≈ 0.78/sqrt(num_maps)).
  uint64_t num_maps = 64;
  std::optional<RangePredicate> predicate;
};

/// Approximate range-sum tracking over one stream via a Haar wavelet
/// synopsis (stream/wavelet.h), periodically compressed to
/// `coefficient_budget` terms.
struct RangeSumQuerySpec {
  std::string stream;
  /// Retained wavelet coefficients (the B-term synopsis size).
  uint64_t coefficient_budget = 256;
  std::optional<RangePredicate> predicate;
};

/// Deterministic ε-approximate quantiles over one stream's values
/// (stream/gk_quantiles.h). Insert-only: delete updates are ignored by
/// this query type (the GK summary is not a linear synopsis).
struct QuantileQuerySpec {
  std::string stream;
  double epsilon = 0.01;
  std::optional<RangePredicate> predicate;
};

/// Continuous top-k frequent values over one stream (core/top_k.h).
struct TopKQuerySpec {
  std::string stream;
  uint64_t k = 10;
  /// Counters for the tracking hash sketch.
  uint64_t space_counters = 4096;
  uint64_t num_tables = 7;
  std::optional<RangePredicate> predicate;
};

/// A multi-attribute relation stream (for chain multi-join queries). The
/// relation's tuples carry `arity` join-attribute values, all over the same
/// domain.
struct RelationSpec {
  std::string name;
  uint64_t arity = 1;
  uint64_t domain_size = 1u << 16;
};

/// COUNT(R0 ⋈ R1 ⋈ ... ⋈ Rk) over registered relations forming a chain:
/// end relations must have arity 1, interior relations arity 2 (first
/// attribute joins the left neighbor, second the right).
struct ChainJoinQuerySpec {
  std::vector<std::string> relations;

  /// Estimation structure: the AGMS median-of-means grid (O(grid) per
  /// tuple) or the bucketized hash-sketch chain (O(num_tables) per tuple,
  /// num_buckets² counters per interior relation).
  enum class Method { kAgmsGrid, kHashSketch };
  Method method = Method::kHashSketch;

  /// kAgmsGrid shape.
  uint64_t num_means = 64;
  uint64_t num_medians = 5;

  /// kHashSketch shape.
  uint64_t num_tables = 5;
  uint64_t num_buckets = 64;
};

/// Any standing query's registration spec (Engine::AddQuery). A self-join
/// is a JoinQuerySpec with left_stream == right_stream, which is how
/// Engine::AddSelfJoinQuery records it.
using QuerySpec =
    std::variant<JoinQuerySpec, FrequencyQuerySpec, DistinctCountQuerySpec,
                 TopKQuerySpec, QuantileQuerySpec, RangeSumQuerySpec,
                 ChainJoinQuerySpec>;

}  // namespace query
}  // namespace skimjoin

#endif  // SKIMJOIN_QUERY_QUERY_H_
