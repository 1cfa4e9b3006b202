#include "sketch/reservoir_sample.h"

#include <algorithm>
#include <unordered_map>

#include "sketch/serial_limits.h"
#include "sketch/sketch_seed.h"

namespace skimjoin {
namespace sketch {

ReservoirSample::ReservoirSample(uint64_t capacity, uint64_t seed)
    : capacity_(capacity), rng_(FamilyRng(seed, FamilyTag::kReservoir, 0)) {
  sample_.reserve(capacity);
}

StatusOr<ReservoirSample> ReservoirSample::Create(uint64_t capacity,
                                                  uint64_t seed) {
  if (capacity < 1) {
    return InvalidArgumentError("reservoir capacity must be >= 1");
  }
  // The sample reserves one word per slot up front: held to the cap every
  // synopsis record reader applies.
  SKIMJOIN_RETURN_IF_ERROR(
      CheckDeserializeDims(1, capacity, "reservoir-sample"));
  return ReservoirSample(capacity, seed);
}

void ReservoirSample::Update(uint64_t value, int64_t weight) {
  for (int64_t i = 0; i < weight; ++i) Insert(value);
  for (int64_t i = 0; i > weight; --i) Delete(value);
}

void ReservoirSample::Insert(uint64_t value) {
  ++insert_count_;
  ++stream_size_;
  if (sample_.size() < capacity_) {
    sample_.push_back(value);
    return;
  }
  // Algorithm R: keep the new element with probability capacity / t.
  const uint64_t slot =
      rng_.NextUint64Below(static_cast<uint64_t>(insert_count_));
  if (slot < capacity_) sample_[slot] = value;
}

void ReservoirSample::Delete(uint64_t value) {
  // Best effort: drop one sampled copy if we have one.
  --stream_size_;
  auto it = std::find(sample_.begin(), sample_.end(), value);
  if (it != sample_.end()) {
    *it = sample_.back();
    sample_.pop_back();
  }
}

double ReservoirSample::EstimateJoinSize(const ReservoirSample& f,
                                         const ReservoirSample& g) {
  if (f.sample_.empty() || g.sample_.empty()) return 0.0;
  std::unordered_map<uint64_t, int64_t> f_counts;
  for (uint64_t v : f.sample_) ++f_counts[v];
  int64_t matches = 0;
  for (uint64_t v : g.sample_) {
    auto it = f_counts.find(v);
    if (it != f_counts.end()) matches += it->second;
  }
  const double scale_f = static_cast<double>(f.stream_size_) /
                         static_cast<double>(f.sample_.size());
  const double scale_g = static_cast<double>(g.stream_size_) /
                         static_cast<double>(g.sample_.size());
  return scale_f * scale_g * static_cast<double>(matches);
}

}  // namespace sketch
}  // namespace skimjoin
