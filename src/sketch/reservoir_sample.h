// Reservoir sampling [Vitter '85], included as the classical sampling
// baseline the paper argues against (§1, §2.2):
//   * joins of uniform samples estimate the join size very poorly on skewed
//     data,
//   * a sequence of deletions can deplete the sample — deletions of sampled
//     values are honored, but deletions of non-sampled values silently lose
//     information, so the sample is only statistically valid for insert-only
//     streams.

#ifndef SKIMJOIN_SKETCH_RESERVOIR_SAMPLE_H_
#define SKIMJOIN_SKETCH_RESERVOIR_SAMPLE_H_

#include <cstdint>
#include <vector>

#include "stream/stream_element.h"
#include "util/random.h"
#include "util/status.h"

namespace skimjoin {
namespace sketch {

/// Uniform-without-replacement reservoir over the inserts of one stream.
class ReservoirSample {
 public:
  /// INVALID_ARGUMENT unless 1 <= capacity <= MaxDeserializeCounters().
  static StatusOr<ReservoirSample> Create(uint64_t capacity, uint64_t seed);

  /// Processes one arrival. Inserts run Vitter's Algorithm R; a delete
  /// removes one sampled copy of the value if present (and always decrements
  /// the insert count), which degrades the sample — this limitation is
  /// intrinsic to sampling and is measured in the ablation bench.
  void Update(uint64_t value, int64_t weight);

  void Update(const stream::StreamElement& element) {
    Update(element.value, element.weight);
  }

  /// Scaled sample-join estimate of COUNT(F ⋈ G):
  /// (n_F / |S_F|) · (n_G / |S_G|) · Σ_v s_F(v)·s_G(v). Returns 0 when
  /// either sample is empty.
  static double EstimateJoinSize(const ReservoirSample& f,
                                 const ReservoirSample& g);

  /// Net number of stream elements seen (inserts minus deletes).
  int64_t stream_size() const { return stream_size_; }

  const std::vector<uint64_t>& sample() const { return sample_; }
  uint64_t capacity() const { return capacity_; }

  /// Total footprint in bytes (object plus sample storage). Feeds the
  /// per-synopsis memory gauges.
  uint64_t MemoryBytes() const {
    return sizeof(*this) + sample_.capacity() * sizeof(uint64_t);
  }

 private:
  ReservoirSample(uint64_t capacity, uint64_t seed);

  uint64_t capacity_;
  Rng rng_;
  std::vector<uint64_t> sample_;
  int64_t stream_size_ = 0;   // net n
  int64_t insert_count_ = 0;  // inserts observed, drives Algorithm R
};

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_RESERVOIR_SAMPLE_H_
