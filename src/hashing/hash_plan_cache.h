// Skew-aware memoization of per-element hash plans.
//
// Sketch maintenance evaluates the same Carter–Wegman polynomials for every
// occurrence of a key, yet real streams are skewed: under Zipf-like
// workloads a handful of hot keys carries most of the mass, so the second
// and later occurrences of a hot key re-pay the full polynomial cost for an
// answer that cannot change (hash families are fixed at construction). A
// HashPlanCache is a small direct-mapped cache from element value to its
// complete per-table "plan" — the (bucket, sign) pair for every table of a
// hash/Count-Min sketch, or the per-level plans inside a skimmed sketch —
// so a cached key costs one probe plus `s` counter adds and ZERO polynomial
// evaluations.
//
// Design points:
//   * Direct-mapped, power-of-two slots, SplitMix64-mixed index: one tag
//     load to probe, eviction is plain overwrite (no LRU bookkeeping on the
//     hot path). Conflict misses just re-pay the polynomial cost — the
//     cache is a pure accelerator and never changes results.
//   * A slot's tag is `value + 1`; tag 0 means empty. This folds occupancy
//     into the tag array (one load, not two). The one value whose tag would
//     collide with "empty" (2^64 - 1) is never served from the cache — it
//     just re-pays the polynomial cost, preserving bit-identity.
//   * Plan words are 32-bit: a packed (bucket, sign) fits easily (counter
//     arrays are memory-bound long before 2^31 buckets), and halving the
//     plan footprint roughly halves the cache-line traffic per hit — the
//     probe cost is what bounds the speedup on hot keys.
//   * The cache holds DERIVED state only (plans are a pure function of the
//     hash families), so it is excluded from serialization, Merge,
//     CompatibleWith, and Reset: a counter reset does not invalidate plans.
//   * Single-writer, like the sketches that own it. Each ingest worker's
//     replica owns its own cache.
//   * hits()/misses() feed the `ingest.<stream>.hash_cache_{hits,misses}`
//     engine metrics (docs/OBSERVABILITY.md).

#ifndef SKIMJOIN_HASHING_HASH_PLAN_CACHE_H_
#define SKIMJOIN_HASHING_HASH_PLAN_CACHE_H_

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace skimjoin {
namespace hashing {

/// A direct-mapped value → plan cache; each plan is `words_per_plan`
/// caller-defined 32-bit words (one per table, packed bucket+sign).
class HashPlanCache {
 public:
  /// `num_slots` is rounded up to a power of two (minimum 1);
  /// `words_per_plan` >= 1.
  HashPlanCache(uint64_t num_slots, uint64_t words_per_plan);

  /// The cached plan for `value`, or nullptr on a miss. Counts the probe.
  const uint32_t* Lookup(uint64_t value) {
    const uint64_t tag = value + 1;  // 0 ⇒ the never-cached sentinel value
    const uint64_t slot = SlotFor(value);
    if (tag != 0 && tags_[slot] == tag) {
      ++hits_;
      return &plans_[slot * words_per_plan_];
    }
    ++misses_;
    return nullptr;
  }

  /// One-shot probe-and-claim: on a hit, `*hit` is true and the cached plan
  /// is returned; on a miss the slot is claimed for `value` (tag written,
  /// previous tenant evicted) and the returned storage is the caller's to
  /// fill. Exactly one slot computation either way — the hot-path form of
  /// Lookup + Insert. Counts the probe.
  uint32_t* Probe(uint64_t value, bool* hit) {
    const uint64_t tag = value + 1;
    const uint64_t slot = SlotFor(value);
    uint32_t* plan = &plans_[slot * words_per_plan_];
    if (tag != 0 && tags_[slot] == tag) {
      ++hits_;
      *hit = true;
      return plan;
    }
    ++misses_;
    tags_[slot] = tag;  // tag 0 (sentinel value) marks the slot empty
    *hit = false;
    return plan;
  }

  /// Claims the slot for `value` (evicting any previous tenant) and returns
  /// its plan storage for the caller to fill. Does not count a probe. For
  /// the sentinel value 2^64 - 1 the written tag marks the slot EMPTY, so
  /// the plan is usable by the caller right now but never served later —
  /// the slot is sacrificed rather than aliased.
  uint32_t* Insert(uint64_t value) {
    const uint64_t slot = SlotFor(value);
    tags_[slot] = value + 1;
    return &plans_[slot * words_per_plan_];
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t num_slots() const { return mask_ + 1; }
  uint64_t words_per_plan() const { return words_per_plan_; }

  /// Total footprint in bytes (plans and tags). Feeds the per-synopsis
  /// memory gauges.
  uint64_t MemoryBytes() const;

 private:
  uint64_t SlotFor(uint64_t value) const { return Mix64(value) & mask_; }

  uint64_t mask_;
  uint64_t words_per_plan_;
  std::vector<uint64_t> tags_;
  std::vector<uint32_t> plans_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// Packing helpers shared by every sketch that stores (bucket, sign) plans:
/// the sign's negative bit rides in bit 0 so the bucket shifts left by one.
/// Callers guard that buckets fit 31 bits (HashSketch runs without a plan
/// cache beyond that — see TableSketch::SetKernel).
inline uint32_t PackBucketSign(uint64_t bucket, int64_t sign) {
  return static_cast<uint32_t>((bucket << 1) |
                               static_cast<uint64_t>(sign < 0));
}
inline uint64_t PlanBucket(uint32_t word) { return word >> 1; }
inline int64_t PlanSign(uint32_t word) {
  return int64_t{1} - 2 * static_cast<int64_t>(word & 1);
}

}  // namespace hashing
}  // namespace skimjoin

#endif  // SKIMJOIN_HASHING_HASH_PLAN_CACHE_H_
