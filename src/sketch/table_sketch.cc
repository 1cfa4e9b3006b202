#include "sketch/table_sketch.h"

#include <string>

#include "sketch/plan_kernel.h"
#include "sketch/serial_limits.h"
#include "sketch/sketch_seed.h"
#include "util/logging.h"

namespace skimjoin {
namespace sketch {

namespace {

/// What tells the two families apart outside their estimators: the record
/// tag, the name in messages and health probes, and the seed tags.
template <bool kSigned>
struct Family;

template <>
struct Family<true> {
  static constexpr const char* kTag = "skimjoin.hash_sketch";
  static constexpr const char* kVersion = "v2";
  static constexpr const char* kName = "hash-sketch";
  static constexpr const char* kConfig = "HashSketchConfig";
  static constexpr FamilyTag kBucketTag = FamilyTag::kHashSketchBucket;
};

template <>
struct Family<false> {
  static constexpr const char* kTag = "skimjoin.count_min";
  static constexpr const char* kVersion = "v1";
  static constexpr const char* kName = "count-min";
  static constexpr const char* kConfig = "CountMinConfig";
  static constexpr FamilyTag kBucketTag = FamilyTag::kCountMinBucket;
};

// A family's object and heap coefficients fit kWordsPerHashFamily with two
// words to spare for allocator overhead.
static_assert(sizeof(hashing::BucketHash) + 2 * sizeof(uint64_t) <=
              (kWordsPerHashFamily - 2) * sizeof(int64_t));
static_assert(sizeof(hashing::SignHash) + 4 * sizeof(uint64_t) <=
              (kWordsPerHashFamily - 2) * sizeof(int64_t));

/// The lane copy of the families: family 0 the bucket polynomials, family
/// 1 the sign polynomials when there are any.
hashing::PolyLanes CopyToLanes(std::span<const hashing::BucketHash> buckets,
                               std::span<const hashing::SignHash> signs) {
  std::vector<size_t> terms = {buckets[0].poly().coefficients().size()};
  if (!signs.empty()) terms.push_back(signs[0].poly().coefficients().size());
  hashing::PolyLanes lanes(buckets.size(), terms);
  for (size_t table = 0; table < buckets.size(); ++table) {
    lanes.Set(0, table, buckets[table].poly().coefficients());
    if (!signs.empty()) lanes.Set(1, table, signs[table].poly().coefficients());
  }
  return lanes;
}

}  // namespace

namespace internal {

PlanState::PlanState(uint64_t slots,
                     std::span<const hashing::BucketHash> buckets,
                     std::span<const hashing::SignHash> signs)
    : cache(slots, buckets.size()),
      lanes(CopyToLanes(buckets, signs)),
      level(hashing::DetectSimdLevel()),
      residues(lanes.families() * lanes.stride()) {}

uint64_t PlanState::MemoryBytes() const {
  return sizeof(*this) + (cache.MemoryBytes() - sizeof(cache)) +
         (lanes.MemoryBytes() - sizeof(lanes)) +
         residues.capacity() * sizeof(uint64_t);
}

}  // namespace internal

template <bool kSigned>
TableSketch<kSigned>::TableSketch(const Config& config, uint64_t seed)
    : config_(config), seed_(seed) {
  bucket_hashes_.reserve(config.num_tables);
  if constexpr (kSigned) sign_hashes_.reserve(config.num_tables);
  for (uint64_t table = 0; table < config.num_tables; ++table) {
    Rng bucket_rng = FamilyRng(seed, Family<kSigned>::kBucketTag, table);
    bucket_hashes_.emplace_back(config.num_buckets, &bucket_rng);
    if constexpr (kSigned) {
      Rng sign_rng = FamilyRng(seed, FamilyTag::kHashSketchSign, table);
      sign_hashes_.emplace_back(&sign_rng);
    }
  }
  counters_.assign(config.TotalCounters(), 0);
  SetKernel(Kernel::kFast);
}

template <bool kSigned>
StatusOr<TableSketch<kSigned>> TableSketch<kSigned>::Make(const Config& config,
                                                          uint64_t seed) {
  if (config.num_tables < 1) {
    return InvalidArgumentError(std::string(Family<kSigned>::kConfig) +
                                ".num_tables must be >= 1");
  }
  if (config.num_buckets < 1) {
    return InvalidArgumentError(std::string(Family<kSigned>::kConfig) +
                                ".num_buckets must be >= 1");
  }
  // The counters and each table's families count against the cap the
  // record reader applies, so no shape is built that its own record would
  // refuse, or that would exhaust memory.
  SKIMJOIN_RETURN_IF_ERROR(CheckDeserializeFootprint(
      config.num_tables, config.num_buckets, kSigned ? 2 : 1,
      Family<kSigned>::kName));
  return TableSketch(config, seed);
}

template <bool kSigned>
void TableSketch<kSigned>::SetKernel(Kernel kernel, uint64_t cache_slots) {
  kernel_ = kernel;
  const bool fast = kernel == Kernel::kFast;
  for (hashing::BucketHash& hash : bucket_hashes_) {
    hash.set_use_fastmod(fast);
  }
  // Plan words are 32-bit: a signed word packs the bucket above its sign
  // bit, a bare word is the bucket. A bucket count beyond what a word holds
  // runs the reference loops (with fastmod) — results are identical either
  // way.
  constexpr uint64_t kMaxPlanBuckets = uint64_t{1} << (kSigned ? 31 : 32);
  plan_cache_slots_ =
      fast && config_.num_buckets <= kMaxPlanBuckets ? cache_slots : 0;
  plan_cache_.reset();
}

template <bool kSigned>
bool TableSketch<kSigned>::UsePlanCache() {
  if (!plan_cache_ && plan_cache_slots_ != 0) {
    plan_cache_.Hold(std::make_shared<internal::PlanState>(
        plan_cache_slots_, bucket_hashes_, sign_hashes_));
  }
  return plan_cache_ != nullptr;
}

template <bool kSigned>
void TableSketch<kSigned>::AdoptPlanCache(TableSketch& source) {
  SKIMJOIN_CHECK(CompatibleWith(source))
      << "sharing a plan cache across incompatible " << Family<kSigned>::kName
      << " synopses";
  if (plan_cache_slots_ == 0 || !source.UsePlanCache()) return;
  plan_cache_.Hold(source.plan_cache_);
}

template <bool kSigned>
uint64_t TableSketch<kSigned>::PlanCacheBytesSharedWith(
    const TableSketch& other) const {
  return plan_cache_ && plan_cache_ == other.plan_cache_
             ? plan_cache_->MemoryBytes()
             : 0;
}

template <bool kSigned>
internal::PlanKernel<kSigned> TableSketch<kSigned>::FastKernel() {
  return {bucket_hashes_, sign_hashes_, counters_, config_.num_buckets,
          plan_cache_.get()};
}

template <bool kSigned>
void TableSketch<kSigned>::Update(uint64_t value, int64_t weight) {
  if (!UsePlanCache()) {
    UpdateUncached(value, weight);
    return;
  }
  ++update_epoch_;
  FastKernel().Update(value, weight);
}

template <bool kSigned>
void TableSketch<kSigned>::UpdateUncached(uint64_t value, int64_t weight) {
  ++update_epoch_;
  for (uint64_t table = 0; table < config_.num_tables; ++table) {
    const uint64_t bucket = bucket_hashes_[table](value);
    if constexpr (kSigned) {
      counters_[table * config_.num_buckets + bucket] +=
          sign_hashes_[table](value) * weight;
    } else {
      counters_[table * config_.num_buckets + bucket] += weight;
    }
  }
}

template <bool kSigned>
void TableSketch<kSigned>::UpdateBatch(
    std::span<const stream::StreamElement> elements) {
  ++update_epoch_;
  if (UsePlanCache()) {
    FastKernel().UpdateBatch(elements);
    return;
  }
  // Reference kernel, table-major: each table's hash families and counter
  // row stay hot across the whole batch.
  for (uint64_t table = 0; table < config_.num_tables; ++table) {
    const hashing::BucketHash& bucket = bucket_hashes_[table];
    int64_t* row = &counters_[table * config_.num_buckets];
    if constexpr (kSigned) {
      const hashing::SignHash& sign = sign_hashes_[table];
      for (const stream::StreamElement& element : elements) {
        row[bucket(element.value)] += sign(element.value) * element.weight;
      }
    } else {
      for (const stream::StreamElement& element : elements) {
        row[bucket(element.value)] += element.weight;
      }
    }
  }
}

template <bool kSigned>
void TableSketch<kSigned>::Reset() {
  ++update_epoch_;
  counters_.assign(counters_.size(), 0);
}

template <bool kSigned>
void TableSketch<kSigned>::Absorb(const stream::FrequencyVector& frequencies) {
  ++update_epoch_;
  const auto& counts = frequencies.counts();
  for (uint64_t value = 0; value < counts.size(); ++value) {
    if (counts[value] != 0) Update(value, counts[value]);
  }
}

template <bool kSigned>
void TableSketch<kSigned>::Merge(const TableSketch& other) {
  SKIMJOIN_CHECK(CompatibleWith(other))
      << "merging incompatible " << Family<kSigned>::kName << " synopses";
  ++update_epoch_;
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
}

template <bool kSigned>
bool TableSketch<kSigned>::CompatibleWith(const TableSketch& other) const {
  return config_.num_tables == other.config_.num_tables &&
         config_.num_buckets == other.config_.num_buckets &&
         seed_ == other.seed_;
}

template <bool kSigned>
std::vector<double> TableSketch<kSigned>::PerTableJoinProducts(
    const TableSketch& f, const TableSketch& g) {
  std::vector<double> per_table;
  per_table.reserve(f.config_.num_tables);
  for (uint64_t table = 0; table < f.config_.num_tables; ++table) {
    const int64_t* fc = &f.counters_[table * f.config_.num_buckets];
    const int64_t* gc = &g.counters_[table * g.config_.num_buckets];
    double sum = 0.0;
    for (uint64_t k = 0; k < f.config_.num_buckets; ++k) {
      sum += static_cast<double>(fc[k]) * static_cast<double>(gc[k]);
    }
    per_table.push_back(sum);
  }
  return per_table;
}

template <bool kSigned>
Status TableSketch<kSigned>::SerializeTo(std::ostream& out) const {
  out << Family<kSigned>::kTag << ' ' << Family<kSigned>::kVersion << '\n'
      << config_.num_tables << ' ' << config_.num_buckets << ' ' << seed_
      << '\n';
  WriteCounterBlock(out, counters_);
  if (!out) {
    return IoError(std::string(Family<kSigned>::kName) +
                   " serialization failed");
  }
  return OkStatus();
}

template <bool kSigned>
StatusOr<TableSketch<kSigned>> TableSketch<kSigned>::ReadRecord(
    std::istream& in) {
  const char* name = Family<kSigned>::kName;
  std::string tag, version;
  if (!(in >> tag >> version) || tag != Family<kSigned>::kTag ||
      version != Family<kSigned>::kVersion) {
    return InvalidArgumentError(std::string("not a skimjoin ") + name + ' ' +
                                Family<kSigned>::kVersion + " record");
  }
  Config config;
  uint64_t seed = 0;
  if (!(in >> config.num_tables >> config.num_buckets >> seed)) {
    return InvalidArgumentError(std::string("malformed ") + name + " header");
  }
  // Validate the untrusted dimensions BEFORE allocating counters (a hostile
  // header could otherwise demand a multi-GB assign), charging each table's
  // families too: at one bucket per table they outweigh the counters.
  SKIMJOIN_RETURN_IF_ERROR(CheckDeserializeFootprint(
      config.num_tables, config.num_buckets, kSigned ? 2 : 1, name));
  TableSketch sketch(config, seed);
  SKIMJOIN_RETURN_IF_ERROR(ReadCounterBlock(in, sketch.counters_, name));
  return sketch;
}

template <bool kSigned>
uint64_t TableSketch<kSigned>::MemoryBytes() const {
  uint64_t total = sizeof(*this) + counters_.capacity() * sizeof(int64_t);
  for (const hashing::BucketHash& h : bucket_hashes_) total += h.MemoryBytes();
  for (const hashing::SignHash& h : sign_hashes_) total += h.MemoryBytes();
  if (plan_cache_) total += plan_cache_->MemoryBytes();
  return total;
}

template <bool kSigned>
SynopsisHealth TableSketch<kSigned>::HealthProbe() const {
  SynopsisHealth health = ProbeCounters(counters_, config_.num_tables);
  health.kind = Family<kSigned>::kName;
  return health;
}

template class TableSketch<true>;
template class TableSketch<false>;

}  // namespace sketch
}  // namespace skimjoin
