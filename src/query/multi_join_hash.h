// Hash-sketch (bucketized) estimation for CHAIN multi-join COUNT queries
//   COUNT(R0 ⋈_{A0} R1 ⋈_{A1} R2 ⋈ ... ⋈_{A(k-1)} Rk),
// the low-update-cost counterpart of query/multi_join.h, extending the
// paper's hash-sketch idea to more than two streams (in the spirit of
// Cormode–Garofalakis' sketching of multi-joins).
//
// Per hash table j, every join attribute A_i carries a bucket hash h_j^i
// and a ±1 family ξ_j^i. End relations keep a vector of b counters over
// their single attribute; middle relations keep a b×b counter matrix over
// their (incoming, outgoing) attribute pair. An arrival touches exactly
// one counter per table — O(num_tables) per element, independent of b.
// The per-table estimate is the vector·matrix·...·vector chain product,
// boosted by the median across tables.

#ifndef SKIMJOIN_QUERY_MULTI_JOIN_HASH_H_
#define SKIMJOIN_QUERY_MULTI_JOIN_HASH_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "hashing/kwise_hash.h"
#include "hashing/sign_hash.h"
#include "util/estimate_report.h"
#include "util/status.h"

namespace skimjoin {
namespace query {

/// Shape of a chain multi-join hash estimator.
struct MultiJoinHashConfig {
  /// Relations in the chain (>= 2). Relation r joins relation r+1 on
  /// attribute A_r; end relations have one attribute, middle ones two.
  uint64_t num_relations = 3;
  /// Hash tables (median boosting; odd recommended).
  uint64_t num_tables = 5;
  /// Buckets per attribute. A middle relation holds num_buckets² counters
  /// per table.
  uint64_t num_buckets = 64;
};

/// Streaming chain-join estimator. Copyable.
class MultiJoinHashEstimator {
 public:
  /// Validates `config` (all dimensions >= 1, >= 2 relations, buckets² per
  /// table and relation within MaxDeserializeCounters()); families derive
  /// from `seed`.
  static StatusOr<MultiJoinHashEstimator> Create(
      const MultiJoinHashConfig& config, uint64_t seed);

  /// Arrival for an END relation (0 or num_relations-1) with its single
  /// join-attribute value. INVALID_ARGUMENT for middle relations.
  Status UpdateEnd(uint64_t relation, uint64_t value, int64_t weight);

  /// Arrival for a MIDDLE relation with its (left-attribute,
  /// right-attribute) values. INVALID_ARGUMENT for end relations.
  Status UpdateMiddle(uint64_t relation, uint64_t left_value,
                      uint64_t right_value, int64_t weight);

  /// Median over tables of the chain product estimate.
  double Estimate() const;

  /// Estimate with provenance: per-table chain products as copy estimates,
  /// their spread and an empirical CI (no closed-form a-priori envelope;
  /// the field stays NaN). `estimate` is bit-identical to Estimate().
  EstimateReport EstimateWithReport() const;

  const MultiJoinHashConfig& config() const { return config_; }

  /// Space accounting: total counters held.
  uint64_t TotalCounters() const;

  /// Total footprint in bytes (hash families and per-relation counter
  /// tables). Feeds the per-query memory gauges.
  uint64_t MemoryBytes() const;

  /// Writes the estimator as a self-describing text record (config, seed,
  /// counter tables); the hash families rebuild from (config, seed).
  Status SerializeTo(std::ostream& out) const;

  /// Reads a record written by SerializeTo. INVALID_ARGUMENT on a
  /// malformed or truncated record; dimensions are validated before any
  /// counter allocation.
  static StatusOr<MultiJoinHashEstimator> DeserializeFrom(std::istream& in);

  /// True when config and seed match (the hash families agree).
  bool CompatibleWith(const MultiJoinHashEstimator& other) const;

  /// Adds `other`'s counters into this estimator — exact for
  /// shard-partitioned tuple streams (the counters are linear in the
  /// weights). Pre-condition: CompatibleWith(other).
  void Merge(const MultiJoinHashEstimator& other);

  uint64_t seed() const { return seed_; }

 private:
  MultiJoinHashEstimator(const MultiJoinHashConfig& config, uint64_t seed);

  uint64_t num_attributes() const { return config_.num_relations - 1; }

  /// The per-table copy estimates both estimation entry points median.
  std::vector<double> PerTableChainProducts() const;

  MultiJoinHashConfig config_;
  uint64_t seed_ = 0;
  // bucket_hashes_[attribute][table], sign_hashes_[attribute][table].
  std::vector<std::vector<hashing::BucketHash>> bucket_hashes_;
  std::vector<std::vector<hashing::SignHash>> sign_hashes_;
  // counters_[relation][table]: b counters for end relations, b·b (row =
  // left attribute bucket) for middle relations.
  std::vector<std::vector<std::vector<int64_t>>> counters_;
};

}  // namespace query
}  // namespace skimjoin

#endif  // SKIMJOIN_QUERY_MULTI_JOIN_HASH_H_
