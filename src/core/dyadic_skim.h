// Dyadic-interval candidate search for SKIMDENSE (§4.2 of the paper,
// following Cormode–Muthukrishnan '03).
//
// Naive skimming scans the whole domain — prohibitive for, e.g., 64-bit IP
// keys. Instead we maintain one auxiliary summary per dyadic level
// l = 1..log2(m): the level-l summary covers the 2^(log m - l) dyadic
// intervals of width 2^l (value v contributes to interval v >> l). A dense
// value forces every enclosing interval to be at least as heavy, so a
// top-down walk from the root that only expands intervals whose estimated
// weight passes the threshold visits O((n/T) · log m) nodes and finds every
// dense candidate with high probability. Per-element maintenance cost grows
// from O(s) to O(s · log m) — still logarithmic, as the paper requires.
//
// Representation per level: when a level has no more prefixes than the
// configured bucket budget, its counts are stored EXACTLY (one counter per
// prefix — same space, zero error); wider levels use a hash sketch. The
// exact high levels make interval estimates near the root noise-free,
// which the range-frequency and quantile queries in core/skimmed_sketch.h
// rely on.

#ifndef SKIMJOIN_CORE_DYADIC_SKIM_H_
#define SKIMJOIN_CORE_DYADIC_SKIM_H_

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "sketch/hash_sketch.h"
#include "stream/frequency_vector.h"
#include "stream/stream_element.h"
#include "util/estimate_report.h"
#include "util/status.h"

namespace skimjoin {
namespace core {

/// Maintains the level-1..log2(m) dyadic summaries and runs the candidate
/// search. The level-0 sketch (over raw values) lives outside this class —
/// see core/skimmed_sketch.h — so the search yields raw-value candidates
/// that the caller confirms against level 0.
class DyadicSkimmer {
 public:
  /// `domain_size` must be a power of two >= 2; `upper_config` shapes the
  /// sketched levels (and bounds which levels are stored exactly); families
  /// derive from `seed` (independent per level).
  static StatusOr<DyadicSkimmer> Create(
      uint64_t domain_size, const sketch::HashSketchConfig& upper_config,
      uint64_t seed);

  /// Applies one arrival to every level: O(num_levels · num_tables).
  void Update(uint64_t value, int64_t weight);

  /// Applies a batch of arrivals level-major: each level's prefixes are
  /// computed once for the whole batch and fed through the level sketch's
  /// own batch path, so per-element dyadic traversal is amortized away.
  /// Counter-for-counter identical to scalar Update calls.
  /// Pre-condition: every element value < domain_size().
  void UpdateBatch(std::span<const stream::StreamElement> elements);

  /// Plan-cache tallies summed over the sketched levels.
  uint64_t hash_cache_hits() const;
  uint64_t hash_cache_misses() const;

  /// Zeroes every level's counters (families untouched).
  void Reset();

  /// Folds a whole frequency vector in (linearity).
  void Absorb(const stream::FrequencyVector& frequencies);

  /// Merges a compatible skimmer. Pre-condition: same domain/config/seed.
  void Merge(const DyadicSkimmer& other);

  /// Estimated total frequency of dyadic interval `prefix` at `level`
  /// (values [prefix·2^level, (prefix+1)·2^level)). Exact when the level is
  /// stored exactly. Pre-conditions: 1 <= level <= num_levels(),
  /// prefix < domain_size >> level.
  int64_t PointEstimate(uint64_t level, uint64_t prefix) const;

  /// True when `level` keeps one exact counter per prefix (no estimation
  /// error). Pre-condition: 1 <= level <= num_levels().
  bool LevelIsExact(uint64_t level) const;

  /// Top-down search: returns every level-0 value whose enclosing intervals
  /// all have |estimate| >= slack * threshold. `slack` in (0, 1] trades
  /// recall (smaller catches dense values whose interval estimates are
  /// pulled low by noise) against search work. Candidates may include
  /// non-dense values; the caller filters against the level-0 sketch.
  std::vector<uint64_t> FindCandidates(int64_t threshold, double slack) const;

  /// Removes a skimmed dense frequency from every level so that later skims
  /// see residual interval weights.
  void SubtractDense(uint64_t value, int64_t frequency);

  /// Number of auxiliary levels (log2(domain_size)).
  uint64_t num_levels() const { return levels_.size(); }

  /// Auxiliary counters consumed (space accounting for the benches).
  uint64_t TotalCounters() const;

  /// Total footprint in bytes across every level (exact arrays and hash
  /// sketches). Feeds the per-synopsis memory gauges.
  uint64_t MemoryBytes() const;

  uint64_t domain_size() const { return domain_size_; }

  /// Read-only health probe over the SKETCHED levels (all share one shape,
  /// so their counter rows concatenate into a uniform table layout): bucket
  /// occupancy, |counter| quantiles, saturation headroom, and collision
  /// pressure per sketched table. Exact levels carry no estimation error and
  /// are only consulted when every level is exact (then collision pressure
  /// is NaN).
  SynopsisHealth HealthProbe() const;

  /// Writes domain size plus every level's representation; see
  /// sketch::HashSketch::SerializeTo.
  Status SerializeTo(std::ostream& out) const;

  /// Reads a record written by SerializeTo.
  static StatusOr<DyadicSkimmer> DeserializeFrom(std::istream& in);

 private:
  /// One dyadic level: exact counters when `sketch` is empty, a hash
  /// sketch otherwise.
  struct Level {
    std::optional<sketch::HashSketch> sketch;
    std::vector<int64_t> exact;

    void Add(uint64_t prefix, int64_t weight) {
      if (sketch.has_value()) {
        sketch->Update(prefix, weight);
      } else {
        exact[prefix] += weight;
      }
    }
  };

  // SkimmedSketch::SetKernel forwards its kernel to every sketched level.
  friend class SkimmedSketch;

  /// Runs the sketched levels on kFast.
  DyadicSkimmer(uint64_t domain_size, std::vector<Level> levels);

  /// Selects the update kernel of every sketched level (DESIGN.md §10);
  /// exact levels have no hashes and are unaffected. Level l sees only
  /// domain_size >> l distinct prefixes, so its plan cache is clamped to
  /// that many slots — a larger cache would be pure wasted footprint.
  void SetKernel(sketch::Kernel kernel);

  uint64_t domain_size_;
  // levels_[l - 1] summarizes dyadic prefixes of width 2^l.
  std::vector<Level> levels_;
};

}  // namespace core
}  // namespace skimjoin

#endif  // SKIMJOIN_CORE_DYADIC_SKIM_H_
