// Multi-join COUNT aggregates over more than two streams (the extension the
// paper points to in §1/§6, following the construction of Dobra–Garofalakis–
// Gehrke–Rastogi, SIGMOD '02).
//
// For an acyclic join query COUNT(R1 ⋈_{A1} R2 ⋈_{A2} R3 ⋈ ...) each join
// attribute A_k gets its own independent four-wise ±1 family ξ^k, shared by
// the (exactly two) relations it joins. The atomic sketch of relation r
// with join attributes (a, b) is X^r = Σ_{(u,v)} f_r(u, v)·ξ^a(u)·ξ^b(v),
// maintained in one pass. E[Π_r X^r] equals the join size because each
// attribute's signs pair up across exactly two relations; the familiar
// median-of-means grid boosts accuracy and confidence.

#ifndef SKIMJOIN_QUERY_MULTI_JOIN_H_
#define SKIMJOIN_QUERY_MULTI_JOIN_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "hashing/sign_hash.h"
#include "util/estimate_report.h"
#include "util/status.h"

namespace skimjoin {
namespace query {

/// Shape of a multi-join estimator.
struct MultiJoinConfig {
  /// Median-of-means grid, as in AgmsConfig.
  uint64_t num_means = 64;
  uint64_t num_medians = 5;

  /// relation_attributes[r] lists the join-attribute ids (0-based, dense)
  /// that relation r carries, in the order Update() will pass values.
  /// Every attribute id must appear in exactly two relations (acyclic
  /// chain/star joins) — the condition under which the estimator is
  /// unbiased.
  std::vector<std::vector<uint64_t>> relation_attributes;
};

/// Streaming estimator for one multi-join COUNT query.
class MultiJoinEstimator {
 public:
  /// Validates the config (grid >= 1×1, >= 2 relations, every attribute in
  /// exactly two relations, attribute ids dense from 0, every relation with
  /// >= 1 attribute, grids and sign families within
  /// MaxDeserializeCounters()).
  static StatusOr<MultiJoinEstimator> Create(const MultiJoinConfig& config,
                                             uint64_t seed);

  /// Applies one arrival of relation `relation`: `attribute_values[i]` is
  /// the value of the relation's i-th join attribute (the order declared in
  /// relation_attributes). O(num_means·num_medians·#attributes).
  /// Returns INVALID_ARGUMENT on a bad relation index or arity mismatch.
  Status Update(uint64_t relation,
                const std::vector<uint64_t>& attribute_values,
                int64_t weight);

  /// Median over the grid columns of the mean over rows of Π_r X^r_ij.
  double Estimate() const;

  /// Estimate with provenance: per-median copy estimates, their spread and
  /// an empirical CI. No closed-form a-priori envelope is reported (the
  /// multi-join variance involves cross-moments of all relations); the
  /// field stays NaN. `estimate` is bit-identical to Estimate().
  EstimateReport EstimateWithReport() const;

  const MultiJoinConfig& config() const { return config_; }
  uint64_t num_relations() const {
    return config_.relation_attributes.size();
  }

  /// Total footprint in bytes (sign families and per-relation counter
  /// grids). Feeds the per-query memory gauges.
  uint64_t MemoryBytes() const;

  /// Writes the estimator as a self-describing text record (config, seed,
  /// counter grids). The sign families rebuild from (config, seed) on
  /// read, so the record carries only the linear state.
  Status SerializeTo(std::ostream& out) const;

  /// Reads a record written by SerializeTo. INVALID_ARGUMENT on a
  /// malformed or truncated record; dimensions are validated before any
  /// counter allocation.
  static StatusOr<MultiJoinEstimator> DeserializeFrom(std::istream& in);

  /// True when config and seed match: different sign families are not
  /// summable.
  bool CompatibleWith(const MultiJoinEstimator& other) const;

  /// Adds `other`'s counters into this estimator. The atomic sketches are
  /// linear in the tuple weights, so merging shard-partial estimators is
  /// exact — the merged state equals one estimator that saw every tuple.
  /// Pre-condition: CompatibleWith(other).
  void Merge(const MultiJoinEstimator& other);

  uint64_t seed() const { return seed_; }

 private:
  MultiJoinEstimator(const MultiJoinConfig& config, uint64_t seed);

  uint64_t CellIndex(uint64_t mean, uint64_t median) const {
    return median * config_.num_means + mean;
  }

  /// The per-median copy estimates both estimation entry points median.
  std::vector<double> PerMedianAverages() const;

  MultiJoinConfig config_;
  uint64_t seed_ = 0;
  // signs_[attribute][cell]: the ξ^attribute family of grid cell (i, j).
  std::vector<std::vector<hashing::SignHash>> signs_;
  // counters_[relation][cell]: atomic sketch X^relation_ij.
  std::vector<std::vector<int64_t>> counters_;
};

}  // namespace query
}  // namespace skimjoin

#endif  // SKIMJOIN_QUERY_MULTI_JOIN_H_
