#include "sketch/fm_sketch.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "sketch/serial_limits.h"
#include "sketch/sketch_seed.h"
#include "util/logging.h"

namespace skimjoin {
namespace sketch {

namespace {

// Magic constant from Flajolet–Martin's analysis.
constexpr double kPhi = 0.77351;

// Rng wrapper for drawing the two hash families deterministically.
Rng HashRng(uint64_t seed, uint64_t which) {
  return FamilyRng(seed, FamilyTag::kFmSketch, which);
}

}  // namespace

FmSketch::FmSketch(uint64_t num_maps, uint64_t seed)
    : num_maps_(num_maps),
      seed_(seed),
      map_hash_([&] {
        Rng rng = HashRng(seed, 1);
        return hashing::KWiseHash(/*independence=*/2, &rng);
      }()),
      position_hash_([&] {
        Rng rng = HashRng(seed, 2);
        return hashing::KWiseHash(/*independence=*/2, &rng);
      }()),
      counters_(num_maps * kPositions, 0) {}

StatusOr<FmSketch> FmSketch::Create(uint64_t num_maps, uint64_t seed) {
  if (num_maps == 0) {
    return InvalidArgumentError("FmSketch needs at least one bit map");
  }
  // Held to the cap its record reader applies.
  SKIMJOIN_RETURN_IF_ERROR(
      CheckDeserializeDims(num_maps, kPositions, "fm-sketch"));
  return FmSketch(num_maps, seed);
}

void FmSketch::Update(uint64_t value, int64_t weight) {
  const uint64_t map = map_hash_(value) % num_maps_;
  const uint64_t bits = position_hash_(value);
  // Geometric position: trailing zeros of the hash (position p with
  // probability 2^-(p+1)). The hash lives in [0, 2^61-1); a zero hash maps
  // to the top position.
  const uint64_t position =
      bits == 0 ? kPositions - 1
                : static_cast<uint64_t>(__builtin_ctzll(bits));
  counters_[map * kPositions + std::min(position, kPositions - 1)] += weight;
}

void FmSketch::Merge(const FmSketch& other) {
  SKIMJOIN_CHECK(CompatibleWith(other)) << "merging incompatible FM sketches";
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
}

Status FmSketch::SerializeTo(std::ostream& out) const {
  out << "skimjoin.fm_sketch v1\n" << num_maps_ << ' ' << seed_ << '\n';
  WriteCounterBlock(out, counters_);
  if (!out) return IoError("FM-sketch serialization failed");
  return OkStatus();
}

StatusOr<FmSketch> FmSketch::DeserializeFrom(std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "skimjoin.fm_sketch" ||
      version != "v1") {
    return InvalidArgumentError("not a skimjoin fm-sketch v1 record");
  }
  uint64_t num_maps = 0;
  uint64_t seed = 0;
  if (!(in >> num_maps >> seed)) {
    return InvalidArgumentError("malformed fm-sketch header");
  }
  SKIMJOIN_RETURN_IF_ERROR(
      CheckDeserializeDims(num_maps, kPositions, "fm-sketch"));
  StatusOr<FmSketch> sketch = FmSketch::Create(num_maps, seed);
  SKIMJOIN_RETURN_IF_ERROR(sketch.status());
  SKIMJOIN_RETURN_IF_ERROR(
      ReadCounterBlock(in, sketch->counters_, "fm-sketch"));
  return sketch;
}

double FmSketch::EstimateDistinctCount() const {
  double position_sum = 0.0;
  for (uint64_t map = 0; map < num_maps_; ++map) {
    uint64_t lowest_unset = 0;
    while (lowest_unset < kPositions &&
           counters_[map * kPositions + lowest_unset] > 0) {
      ++lowest_unset;
    }
    position_sum += static_cast<double>(lowest_unset);
  }
  const double mean_position = position_sum / static_cast<double>(num_maps_);
  return static_cast<double>(num_maps_) * std::pow(2.0, mean_position) / kPhi;
}

uint64_t FmSketch::MemoryBytes() const {
  return sizeof(*this) + counters_.capacity() * sizeof(int64_t) +
         (map_hash_.MemoryBytes() - sizeof(hashing::KWiseHash)) +
         (position_hash_.MemoryBytes() - sizeof(hashing::KWiseHash));
}

}  // namespace sketch
}  // namespace skimjoin
