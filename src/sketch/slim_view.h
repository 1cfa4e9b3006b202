// The slim half of the fat/slim two-stage read path (DESIGN.md §11),
// after the SF-sketch fat/slim split: the ingest path keeps updating the
// full-width "fat" synopsis (HashSketch / CountMinSketch), while reads are
// served from a compact query-optimized SlimView derived from it.
//
// Two deliberate deviations from the lossy SF-sketch slim part:
//   * The view is LOSSLESS in answer space — it narrows counters to 32 bits
//     when every counter fits (the common case by orders of magnitude) but
//     performs all estimator arithmetic in the fat sketch's own width, so
//     every PointEstimate / EstimateJoinSize is bit-identical to the fat
//     sketch's answer. Bit-identity is what lets the engine's answer cache
//     and the differential tests treat slim and fat as interchangeable.
//   * "Incremental" refresh is epoch-gated, not per-delta: every sketch
//     update touches one counter in EVERY table, so per-element deltas have
//     no sparsity to exploit. Instead the fat sketch carries a monotone
//     update_epoch(); Refresh() is a no-op (O(1)) while the epoch is
//     unchanged and one sequential narrowing pass when it advanced.
//
// The view owns its own copies of the hash families (rebuilt
// deterministically from the fat sketch's (config, seed), exactly as
// deserialization does), so a refreshed view answers queries without
// touching the fat sketch at all — it can live on a read-only thread or be
// shipped to a read replica while ingest keeps mutating the fat side.

#ifndef SKIMJOIN_SKETCH_SLIM_VIEW_H_
#define SKIMJOIN_SKETCH_SLIM_VIEW_H_

#include <cstdint>
#include <vector>

#include "hashing/kwise_hash.h"
#include "hashing/sign_hash.h"
#include "sketch/count_min_sketch.h"
#include "sketch/hash_sketch.h"
#include "util/status.h"

namespace skimjoin {
namespace sketch {

/// A query-optimized view of one fat synopsis. Copyable; a copy keeps
/// answering at the epoch it was refreshed at.
class SlimView {
 public:
  /// Builds a view over `fat` and performs the initial refresh.
  explicit SlimView(const HashSketch& fat);
  explicit SlimView(const CountMinSketch& fat);

  /// Re-derives the packed counters iff `fat`'s update epoch advanced since
  /// the last refresh. Returns true when a pass actually ran. CHECK-fails
  /// when `fat` is not the synopsis shape this view was built over.
  bool Refresh(const HashSketch& fat);
  bool Refresh(const CountMinSketch& fat);

  /// True when the view reflects `fat` as of `fat.update_epoch()`.
  bool FreshFor(uint64_t fat_epoch) const {
    return refreshed_epoch_ == fat_epoch;
  }

  /// Point frequency estimate; bit-identical to the fat sketch's
  /// PointEstimate at the refreshed epoch (COUNTSKETCH median for a
  /// hash-sketch view, min over tables for a count-min view).
  int64_t PointEstimate(uint64_t value) const;

  /// Join-size estimate from two slim views; bit-identical to
  /// HashSketch::EstimateJoinSize / CountMinSketch::EstimateJoinSize on the
  /// fat pair at the refreshed epochs. INVALID_ARGUMENT when the views were
  /// built over incompatible or differently-typed synopses.
  static StatusOr<double> EstimateJoinSize(const SlimView& f,
                                           const SlimView& g);

  /// The fat epoch the counters were last derived at.
  uint64_t refreshed_epoch() const { return refreshed_epoch_; }

  /// Refresh passes that actually copied counters (epoch had advanced).
  uint64_t refresh_count() const { return refresh_count_; }

  /// Whether the last refresh packed counters into 32 bits.
  bool narrowed() const { return use32_; }

  /// Total footprint in bytes (object, packed counters, hash families).
  uint64_t MemoryBytes() const;

 private:
  enum class Kind { kHashSketch, kCountMin };

  bool CompatibleWith(const SlimView& other) const;

  /// Counter of `bucket` in `table`, widened back to the fat width.
  int64_t CounterAt(uint64_t table, uint64_t bucket) const {
    const uint64_t i = table * num_buckets_ + bucket;
    return use32_ ? int64_t{counters32_[i]} : counters64_[i];
  }

  /// Copies `fat_counters` into whichever packed array fits.
  void PackCounters(std::span<const int64_t> fat_counters);

  Kind kind_;
  uint64_t num_tables_;
  uint64_t num_buckets_;
  uint64_t seed_;
  std::vector<hashing::BucketHash> bucket_hashes_;  // one per table
  std::vector<hashing::SignHash> sign_hashes_;      // empty for count-min
  bool use32_ = true;
  std::vector<int32_t> counters32_;
  std::vector<int64_t> counters64_;
  uint64_t refreshed_epoch_ = 0;
  uint64_t refresh_count_ = 0;
};

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_SLIM_VIEW_H_
