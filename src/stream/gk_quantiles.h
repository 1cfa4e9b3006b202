// Greenwald–Khanna ε-approximate quantile summaries (SIGMOD '01) —
// citation [1] of the paper's related work, implemented as the
// deterministic, insert-only counterpart of the randomized dyadic
// quantiles in core/skimmed_sketch.h.
//
// The summary holds tuples (value, g, Δ) sorted by value, where g is the
// gap in minimum rank to the previous tuple and Δ bounds the rank
// uncertainty. The invariant g_i + Δ_i <= ⌊2εn⌋ guarantees every quantile
// query is answered within ε·n ranks using O((1/ε)·log(εn)) tuples.
//
// Unlike every sketch in this library, GK summaries are NOT linear: they
// cannot process deletions (the trade-off for determinism) — exactly the
// kind of limitation the paper's sketch-based machinery avoids.

#ifndef SKIMJOIN_STREAM_GK_QUANTILES_H_
#define SKIMJOIN_STREAM_GK_QUANTILES_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "util/status.h"

namespace skimjoin {
namespace stream {

/// Deterministic ε-approximate quantiles over an insert-only value stream.
class GkQuantileSummary {
 public:
  /// `epsilon` in (0, 0.5]: queries answer within epsilon·n ranks.
  static StatusOr<GkQuantileSummary> Create(double epsilon);

  /// Inserts one observation. O(log(summary size)) search plus periodic
  /// O(summary size) compression.
  void Insert(uint64_t value);

  /// Value whose rank is within epsilon·n of ceil(phi·n).
  /// Pre-condition via Status: FAILED_PRECONDITION on an empty summary;
  /// INVALID_ARGUMENT unless 0 < phi <= 1.
  StatusOr<uint64_t> Quantile(double phi) const;

  /// Observations inserted.
  int64_t count() const { return count_; }

  /// Tuples currently held (the O((1/ε)·log(εn)) space bound).
  uint64_t summary_size() const { return tuples_.size(); }

  double epsilon() const { return epsilon_; }

  /// Whether `other` answers within the same epsilon (what a loaded record
  /// must share with the summary it replaces).
  bool CompatibleWith(const GkQuantileSummary& other) const {
    return epsilon_ == other.epsilon_;
  }

  /// Total footprint in bytes (object plus tuple storage). Feeds the
  /// per-synopsis memory gauges.
  uint64_t MemoryBytes() const;

  /// Writes a self-describing text record (epsilon, count, tuples).
  Status SerializeTo(std::ostream& out) const;

  /// Reads a record written by SerializeTo. INVALID_ARGUMENT on a malformed
  /// or truncated record.
  static StatusOr<GkQuantileSummary> DeserializeFrom(std::istream& in);

 private:
  struct Tuple {
    uint64_t value;
    int64_t g;      // min-rank gap to the previous tuple
    int64_t delta;  // rank uncertainty
  };

  explicit GkQuantileSummary(double epsilon);

  /// Merges tuples whose combined band fits the 2εn budget.
  void Compress();

  double epsilon_;
  int64_t count_ = 0;
  std::vector<Tuple> tuples_;  // sorted by value
};

}  // namespace stream
}  // namespace skimjoin

#endif  // SKIMJOIN_STREAM_GK_QUANTILES_H_
