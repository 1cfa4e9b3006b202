// Probabilistic distinct-value counting (Flajolet–Martin / PCSA), the
// classic synopsis the paper cites alongside join sketches ([6, 7] in its
// bibliography). Included so the query engine can answer COUNT DISTINCT
// over the same streams.
//
// Layout: `num_maps` bit maps of 64 positions. An arrival hashes to one
// map (pairwise hash) and to a geometric position (number of trailing
// zeros of a second hash). Positions hold signed COUNTERS rather than
// bits, so matched insert/delete pairs cancel exactly — the same
// linear-update discipline as every other synopsis here; a position is
// "set" while its counter is positive. The estimate is the PCSA formula
// 2^(mean lowest-unset-position) · num_maps / 0.77351.

#ifndef SKIMJOIN_SKETCH_FM_SKETCH_H_
#define SKIMJOIN_SKETCH_FM_SKETCH_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "hashing/kwise_hash.h"
#include "stream/stream_element.h"
#include "util/status.h"

namespace skimjoin {
namespace sketch {

/// Distinct-count synopsis for one stream.
class FmSketch {
 public:
  /// `num_maps` bit maps (more maps → lower variance; the standard error is
  /// about 0.78/sqrt(num_maps)). INVALID_ARGUMENT if num_maps == 0 or its
  /// counters exceed MaxDeserializeCounters().
  static StatusOr<FmSketch> Create(uint64_t num_maps, uint64_t seed);

  /// Applies one arrival. A deletion of a value that was inserted earlier
  /// exactly cancels its insertion.
  void Update(uint64_t value, int64_t weight);

  void Update(const stream::StreamElement& element) {
    Update(element.value, element.weight);
  }

  /// Merges a compatible sketch (union of multisets).
  /// Pre-condition: same num_maps and seed.
  void Merge(const FmSketch& other);

  /// Estimated number of distinct values with positive net frequency.
  double EstimateDistinctCount() const;

  uint64_t num_maps() const { return num_maps_; }
  uint64_t seed() const { return seed_; }

  /// Space accounting: counters held.
  uint64_t TotalCounters() const { return num_maps_ * kPositions; }

  /// Total footprint in bytes: the object plus counter array and hash
  /// heap storage. Feeds the per-synopsis memory gauges.
  uint64_t MemoryBytes() const;

  bool CompatibleWith(const FmSketch& other) const {
    return num_maps_ == other.num_maps_ && seed_ == other.seed_;
  }

  /// Writes a self-describing text record (num_maps, seed, counters); hash
  /// families are reconstructed from the seed on deserialization.
  Status SerializeTo(std::ostream& out) const;

  /// Reads a record written by SerializeTo. INVALID_ARGUMENT on a malformed
  /// or truncated record.
  static StatusOr<FmSketch> DeserializeFrom(std::istream& in);

 private:
  static constexpr uint64_t kPositions = 64;

  FmSketch(uint64_t num_maps, uint64_t seed);

  uint64_t num_maps_;
  uint64_t seed_;
  hashing::KWiseHash map_hash_;       // value → map
  hashing::KWiseHash position_hash_;  // value → geometric position
  std::vector<int64_t> counters_;     // num_maps × kPositions
};

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_FM_SKETCH_H_
