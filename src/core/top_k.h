// Continuous top-k frequent-value tracking — the problem the hash-sketch
// (COUNTSKETCH) data structure was originally built for [Charikar–Chen–
// Farach-Colton '02], provided here as a first-class API on top of the
// same structure the join estimator uses.
//
// A candidate set of at most k values rides alongside the sketch: each
// arrival re-estimates the arriving value and promotes it into the set when
// it beats the current minimum. Deletions demote values naturally (their
// estimates shrink). Answers re-estimate every candidate so reported
// frequencies are current.

#ifndef SKIMJOIN_CORE_TOP_K_H_
#define SKIMJOIN_CORE_TOP_K_H_

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <utility>
#include <vector>

#include "sketch/hash_sketch.h"
#include "stream/stream_element.h"
#include "util/status.h"

namespace skimjoin {
namespace core {

/// Streaming tracker of the (approximately) k most frequent values.
class TopKTracker {
 public:
  /// Tracks up to `k` values with a hash sketch shaped by `sketch_config`.
  /// INVALID_ARGUMENT if k == 0 or the sketch config is invalid.
  static StatusOr<TopKTracker> Create(
      uint64_t k, const sketch::HashSketchConfig& sketch_config,
      uint64_t seed);

  /// Applies one arrival and refreshes the candidate set: O(num_tables)
  /// plus O(k) on candidate replacement.
  void Update(uint64_t value, int64_t weight);

  void Update(const stream::StreamElement& element) {
    Update(element.value, element.weight);
  }

  /// The current top candidates with freshly re-estimated frequencies,
  /// sorted by estimate descending (ties by value ascending). At most k
  /// entries; values whose estimate has dropped to <= 0 are omitted.
  std::vector<std::pair<uint64_t, int64_t>> TopK() const;

  uint64_t k() const { return k_; }

  /// Whether `other` tracks the same k (what a loaded record must share
  /// with the tracker it replaces).
  bool CompatibleWith(const TopKTracker& other) const { return k_ == other.k_; }

  /// The underlying sketch (point estimates, space accounting).
  const sketch::HashSketch& sketch() const { return sketch_; }

  /// Total footprint in bytes: sketch plus candidate map (each tree node
  /// costed at its payload plus pointer overhead). Feeds the per-synopsis
  /// memory gauges.
  uint64_t MemoryBytes() const;

  /// Writes a self-describing text record (k, sketch, candidate set).
  Status SerializeTo(std::ostream& out) const;

  /// Reads a record written by SerializeTo. INVALID_ARGUMENT on a malformed
  /// or truncated record.
  static StatusOr<TopKTracker> DeserializeFrom(std::istream& in);

 private:
  TopKTracker(uint64_t k, sketch::HashSketch sketch);

  uint64_t k_;
  sketch::HashSketch sketch_;
  // Candidate set: value → last observed estimate (refreshed on answers).
  // Ordered map so candidate scans (weakest-candidate replacement) visit
  // values in a deterministic order — a restored tracker then evolves
  // bit-identically to one that never stopped.
  std::map<uint64_t, int64_t> candidates_;
};

}  // namespace core
}  // namespace skimjoin

#endif  // SKIMJOIN_CORE_TOP_K_H_
