// Live workload profiler: per-stream frequent-item tracking and shape
// statistics maintained in O(1) per stream element, in the spirit of the
// disaggregated-subset-sum frequent-item sketches (PAPERS.md). One
// StreamProfiler rides next to each registered stream and answers "what
// does this stream look like?" — the workload half of the sketch-health
// question (the synopsis half is SynopsisHealth / HealthProbe):
//
//   * SpaceSaving-style top-k heavy hitters (Metwally et al.) behind an
//     admission filter (after Homem & Carvalho's filtered space-saving): a
//     fixed budget of monitored (value, count, error) entries plus counter
//     cells embedded in the index table's free slots. An unmonitored
//     arrival accumulates in the cell where its probe ends and is only
//     admitted — evicting the minimum-count entry, inheriting the cell's
//     mass with the cell as its error term — once the cell beats that
//     minimum. Tail arrivals therefore cost one increment on a cache line
//     the probe already touched; the evict-reindex-resift cycle runs only
//     when a value has proven it belongs. Entries live in a flat array
//     indexed by an open-addressed table and ordered by a binary min-heap,
//     so Observe is O(log capacity) worst case with no per-element
//     allocation — and O(1) on the dominant paths (a hit at a heap leaf,
//     a filtered tail arrival).
//   * An FM/HLL-style distinct estimate: 64 max-trailing-zero registers
//     over a mixed hash of the value — 64 bytes, one shift/compare per
//     element (util/ sits below sketch/, so the estimator is inlined here
//     rather than reusing sketch/fm_sketch).
//   * Insert/delete mass tallies (delete ratio) and an observation count.
//   * A fitted Zipf exponent ("skew"), computed at snapshot time by
//     matching the stable heavy hitters' mass fraction against a Zipf
//     model over the estimated distinct count — robust across skews where
//     a log-log rank regression degrades (flat streams churn the tail of
//     the monitored set, but the aggregate mass of the stable entries
//     stays informative).
//
// Threading follows the engine discipline: Observe and TakeSnapshot run on
// the single writer thread (Engine::UpdateBatch's validation loop). The
// scalar tallies are relaxed atomics so a concurrent reader tearing a
// snapshot of the exported gauges sees monitoring-grade values, never UB.
// Hot-path cost is a handful of arithmetic ops plus one open-addressed
// probe; the engine additionally gates every call behind a runtime toggle
// (Engine::SetProfilerEnabled).

#ifndef SKIMJOIN_UTIL_STREAM_PROFILER_H_
#define SKIMJOIN_UTIL_STREAM_PROFILER_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

namespace skimjoin {
namespace util {

class StreamProfiler {
 public:
  /// Monitored heavy-hitter slots. 128 keeps the whole structure (entries,
  /// index table with embedded filter cells, heap) around 12 KB — resident
  /// next to the ingest path without displacing sketch counters from
  /// cache, which is where a larger profiler actually costs ingest
  /// throughput. Top-128 is ample for workload-shape introspection (the
  /// skew fit uses only the stable head, and SpaceSaving deployments
  /// commonly run k~100).
  static constexpr size_t kDefaultCapacity = 128;

  explicit StreamProfiler(size_t capacity = kDefaultCapacity);

  /// Feeds one stream arrival (value, signed count). O(log capacity)
  /// worst case, no allocation. Single-writer (the engine's writer
  /// thread).
  /// Defined inline below: the fast paths (monitored hit, filtered tail
  /// arrival) compile into the caller's ingest loop; only admission and
  /// eviction call out of line.
  void Observe(uint64_t value, int64_t count);

  /// Batch-ingest split of Observe: ObserveValue feeds the heavy-hitter
  /// and distinct structures for one element WITHOUT the scalar tallies;
  /// the caller accumulates those in register-resident locals across its
  /// batch and folds them in with one AddTallies call, shaving the
  /// per-element counter read-modify-writes off the ingest loop.
  void ObserveValue(uint64_t value, int64_t count);

  void AddTallies(uint64_t observations, uint64_t insert_mass,
                  uint64_t delete_mass, int64_t net_mass) {
    observations_.store(
        observations_.load(std::memory_order_relaxed) + observations,
        std::memory_order_relaxed);
    insert_mass_.store(
        insert_mass_.load(std::memory_order_relaxed) + insert_mass,
        std::memory_order_relaxed);
    delete_mass_.store(
        delete_mass_.load(std::memory_order_relaxed) + delete_mass,
        std::memory_order_relaxed);
    net_mass_.store(net_mass_.load(std::memory_order_relaxed) + net_mass,
                    std::memory_order_relaxed);
  }

  struct HeavyHitter {
    uint64_t value = 0;
    /// Estimated count; may overcount by at most `error` (colliding mass
    /// inherited from the admission filter cell).
    int64_t count = 0;
    /// Overcount bound inherited at (re-)admission; count - error is a
    /// guaranteed lower bound on the true count.
    int64_t error = 0;
  };

  struct Snapshot {
    /// Observe calls (stream elements seen).
    uint64_t observations = 0;
    /// Sum of positive / |negative| counts, and their sum's net.
    uint64_t insert_mass = 0;
    uint64_t delete_mass = 0;
    int64_t net_mass = 0;
    /// delete_mass / (insert_mass + delete_mass); 0 on an empty stream.
    double delete_ratio = 0.0;
    /// HLL-style distinct-value estimate (64 registers, ±~13%).
    double distinct_estimate = 0.0;
    /// distinct_estimate / observations; the "every element is new" end of
    /// the scale is 1.0.
    double distinct_rate = 0.0;
    /// Fitted Zipf exponent; NaN until at least one stable heavy hitter
    /// exists (see class comment for the fitting method).
    double skew = 0.0;
    /// Estimated fraction of the insert mass covered by the monitored
    /// heavy hitters (guaranteed counts over insert mass).
    double heavy_mass_fraction = 0.0;
    /// Monitored entries, descending by estimated count.
    std::vector<HeavyHitter> heavy_hitters;
  };

  /// Builds a snapshot from the current state. Writer-thread only (it
  /// walks the heavy-hitter structure); the engine calls it from the same
  /// thread that calls Observe.
  Snapshot TakeSnapshot() const;

  /// Returns the profiler to its freshly constructed state.
  void Reset();

  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    uint64_t value = 0;
    int64_t count = 0;
    int64_t error = 0;
    uint32_t heap_pos = 0;
  };

  /// Open-addressed index slot: maps a value to its entry (or marks the
  /// slot free). Linear probing with backshift deletion, so eviction churn
  /// never accumulates tombstones. Free slots double as admission-filter
  /// cells: filter_mass occupies what would otherwise be struct padding,
  /// so an unmonitored arrival's whole bookkeeping happens on the cache
  /// line(s) its index probe already touched.
  struct IndexSlot {
    uint64_t value = 0;
    uint32_t entry = kFreeSlot;
    /// Unmonitored mass accumulated by values whose probe ends at this
    /// free slot, saturating at UINT32_MAX. Drained into the entry on
    /// admission; refilled with the displaced count on eviction.
    uint32_t filter_mass = 0;
  };
  static constexpr uint32_t kFreeSlot = UINT32_MAX;

  /// splitmix64 finalizer: the shared mixer for the index probe and the
  /// distinct registers.
  static uint64_t Mix(uint64_t value) {
    value += 0x9e3779b97f4a7c15ULL;
    value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ULL;
    value = (value ^ (value >> 27)) * 0x94d049bb133111ebULL;
    return value ^ (value >> 31);
  }

  /// Index of `value` in entries_, or kFreeSlot. `hash` must be
  /// Mix(value). On a miss, `*slot` receives the index of the free slot
  /// that terminated the probe — the arrival's admission-filter cell.
  uint32_t FindEntry(uint64_t value, uint64_t hash, uint64_t* slot) const {
    uint64_t i = hash & index_mask_;
    while (index_[i].entry != kFreeSlot) {
      if (index_[i].value == value) return index_[i].entry;
      i = (i + 1) & index_mask_;
    }
    *slot = i;
    return kFreeSlot;
  }
  void IndexInsert(uint64_t value, uint32_t entry);
  void IndexErase(uint64_t value);

  /// Cold half of Observe: admits `value` into a fresh slot (below
  /// capacity) or over the minimum entry (at capacity, once its filter
  /// cell won admission). `cell` is the arrival's filter cell.
  void AdmitFresh(uint64_t value, int64_t count);
  void ReplaceMin(uint64_t value, int64_t candidate, uint32_t& cell);

  /// Restores the min-heap after entries_[entry].count changed.
  void SiftDown(uint32_t heap_pos);
  void SiftUp(uint32_t heap_pos);
  bool HeapLess(uint32_t entry_a, uint32_t entry_b) const;
  void HeapSwap(uint32_t pos_a, uint32_t pos_b);

  size_t capacity_;
  uint64_t index_mask_;           // index table size - 1 (power of two)
  /// Cached entries_[heap_[0]].count — the filtered-admission bar. Kept in
  /// sync by the paths that can change the root (admission, eviction, a
  /// hit on the root, any decrement); the tail fast path reads this one
  /// scalar instead of chasing heap_[0] into entries_.
  int64_t min_count_ = 0;
  /// Cached entries_.size() (== heap_.size()): the per-element paths test
  /// it against capacity_ and the heap leaf boundary without reloading
  /// the vectors' begin/end pointers.
  uint32_t live_ = 0;
  std::vector<Entry> entries_;    // fixed slots, size <= capacity_
  std::vector<IndexSlot> index_;  // open-addressed value -> entry
  std::vector<uint32_t> heap_;    // min-heap of entry indices by count

  // Relaxed-atomic tallies: written by the single Observe thread, safely
  // readable by any snapshotting thread.
  std::atomic<uint64_t> observations_{0};
  std::atomic<uint64_t> insert_mass_{0};
  std::atomic<uint64_t> delete_mass_{0};
  std::atomic<int64_t> net_mass_{0};

  /// HLL registers: register r holds the max trailing-zero rank seen among
  /// hashes routed to r by their top 6 bits.
  static constexpr size_t kDistinctRegisters = 64;
  uint8_t distinct_registers_[kDistinctRegisters] = {};
};

inline void StreamProfiler::Observe(uint64_t value, int64_t count) {
  // Single-writer tallies: load+store instead of fetch_add keeps the
  // counters atomic for concurrent gauge readers without paying a locked
  // read-modify-write per stream element on the ingest hot path.
  AddTallies(1, count >= 0 ? static_cast<uint64_t>(count) : 0,
             count >= 0 ? 0 : static_cast<uint64_t>(-count), count);
  ObserveValue(value, count);
}

inline void StreamProfiler::ObserveValue(uint64_t value, int64_t count) {
  const uint64_t hash = Mix(value);
  uint64_t free_slot = 0;
  const uint32_t entry = FindEntry(value, hash, &free_slot);
  if (entry != kFreeSlot) {
    Entry& hit = entries_[entry];
    hit.count += count;
    const uint32_t pos = hit.heap_pos;
    if (count >= 0) {
      // Heavy entries live at the heap's leaves, so most monitored hits
      // need no reordering — test for a child before paying the call.
      if (2 * pos + 1 < live_) SiftDown(pos);
      if (pos == 0) min_count_ = entries_[heap_[0]].count;
    } else {
      SiftUp(pos);
      min_count_ = entries_[heap_[0]].count;
    }
    return;
  }
  // The distinct registers are max-registers, so only a value's first
  // arrival can change them — and a first arrival is always an index miss
  // (monitored entries were admitted through this path). Updating here
  // keeps the hit path free of the register work at identical estimates.
  const size_t reg = hash >> 58;
  const uint8_t rho = static_cast<uint8_t>(
      std::countr_zero(hash | (uint64_t{1} << 58)) + 1);
  if (rho > distinct_registers_[reg]) distinct_registers_[reg] = rho;
  // A delete of an unmonitored value carries no admission signal.
  if (count <= 0) return;
  if (live_ < capacity_) {
    AdmitFresh(value, count);
    return;
  }
  // Filtered admission (after Homem & Carvalho's filtered space-saving):
  // an unmonitored arrival first accumulates in its filter cell, and only
  // claims a monitored slot once the cell's mass beats the current minimum
  // entry. The tail of a skewed stream thus costs one increment on a cache
  // line the index probe already touched instead of an evict-reindex-
  // resift cycle — the difference between ~15ns and ~55ns per Observe on
  // a Zipf(1.1) workload — while a genuine heavy hitter still crosses the
  // bar within O(min/rate) arrivals.
  uint32_t& cell = index_[free_slot].filter_mass;
  const int64_t min_count = min_count_;
  const int64_t candidate = static_cast<int64_t>(cell) + count;
  if (candidate <= min_count) {
    cell = candidate > static_cast<int64_t>(UINT32_MAX)
               ? UINT32_MAX
               : static_cast<uint32_t>(candidate);
    return;
  }
  ReplaceMin(value, candidate, cell);
}

/// Estimates the Zipf exponent z such that the top `stable_count` ranks of
/// a Zipf(z) distribution over `distinct` values cover `mass_fraction` of
/// the total mass. Bisection on z in [0, 5]; NaN when the inputs cannot
/// pin an exponent (no stable entries, distinct <= stable_count, or a mass
/// fraction outside (0, 1]). Exposed for the profiler accuracy tests.
double FitZipfExponentFromHeavyMass(uint64_t stable_count, double distinct,
                                    double mass_fraction);

}  // namespace util
}  // namespace skimjoin

#endif  // SKIMJOIN_UTIL_STREAM_PROFILER_H_
