#include "core/dyadic_skim.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "sketch/serial_limits.h"
#include "sketch/sketch_seed.h"
#include "util/logging.h"

namespace skimjoin {
namespace core {

namespace {

bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

uint64_t Log2(uint64_t x) {
  uint64_t log = 0;
  while ((uint64_t{1} << log) < x) ++log;
  return log;
}

uint64_t LevelSeed(uint64_t seed, uint64_t level) {
  return Mix64(seed ^
               Mix64(static_cast<uint64_t>(sketch::FamilyTag::kDyadicLevel) *
                     0x100000001B3ull) ^
               level);
}

}  // namespace

DyadicSkimmer::DyadicSkimmer(uint64_t domain_size, std::vector<Level> levels)
    : domain_size_(domain_size), levels_(std::move(levels)) {
  SetKernel(sketch::Kernel::kFast);
}

StatusOr<DyadicSkimmer> DyadicSkimmer::Create(
    uint64_t domain_size, const sketch::HashSketchConfig& upper_config,
    uint64_t seed) {
  if (!IsPowerOfTwo(domain_size) || domain_size < 2) {
    return InvalidArgumentError(
        "dyadic skimming requires a power-of-two domain size >= 2");
  }
  if (upper_config.num_tables < 1 || upper_config.num_buckets < 1) {
    return InvalidArgumentError(
        "dyadic level config requires num_tables >= 1 and num_buckets >= 1");
  }
  const uint64_t num_levels = Log2(domain_size);
  std::vector<Level> levels;
  levels.reserve(num_levels);
  for (uint64_t l = 1; l <= num_levels; ++l) {
    const uint64_t prefixes = domain_size >> l;
    Level level;
    if (prefixes <= upper_config.num_buckets) {
      // Exact representation: same space as one sketch table, zero error.
      level.exact.assign(prefixes, 0);
    } else {
      StatusOr<sketch::HashSketch> sketch =
          sketch::HashSketch::Create(upper_config, LevelSeed(seed, l));
      SKIMJOIN_RETURN_IF_ERROR(sketch.status());
      level.sketch = *std::move(sketch);
    }
    levels.push_back(std::move(level));
  }
  return DyadicSkimmer(domain_size, std::move(levels));
}

void DyadicSkimmer::Update(uint64_t value, int64_t weight) {
  SKIMJOIN_CHECK_LT(value, domain_size_);
  for (uint64_t l = 1; l <= levels_.size(); ++l) {
    levels_[l - 1].Add(value >> l, weight);
  }
}

void DyadicSkimmer::UpdateBatch(
    std::span<const stream::StreamElement> elements) {
  for (const stream::StreamElement& element : elements) {
    SKIMJOIN_CHECK_LT(element.value, domain_size_);
  }
  // Prefix elements for the current level, reused across levels. Each level
  // halves the previous level's prefixes, so shifting the scratch in place
  // by one more bit per level avoids re-deriving prefixes from scratch.
  // thread_local: no allocation per batch once warm, and each ingest worker
  // thread gets its own copy.
  static thread_local std::vector<stream::StreamElement> shifted;
  shifted.assign(elements.begin(), elements.end());
  for (uint64_t l = 1; l <= levels_.size(); ++l) {
    for (stream::StreamElement& element : shifted) element.value >>= 1;
    Level& level = levels_[l - 1];
    if (level.sketch.has_value()) {
      level.sketch->UpdateBatch(shifted);
    } else {
      for (const stream::StreamElement& element : shifted) {
        level.exact[element.value] += element.weight;
      }
    }
  }
}

void DyadicSkimmer::SetKernel(sketch::Kernel kernel) {
  for (uint64_t l = 1; l <= levels_.size(); ++l) {
    Level& level = levels_[l - 1];
    if (!level.sketch.has_value()) continue;
    level.sketch->SetKernel(
        kernel, std::min(sketch::kPlanCacheSlots, domain_size_ >> l));
  }
}

void DyadicSkimmer::AdoptPlanCache(DyadicSkimmer& source) {
  SKIMJOIN_CHECK_EQ(levels_.size(), source.levels_.size());
  for (size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].sketch.has_value()) {
      levels_[i].sketch->AdoptPlanCache(*source.levels_[i].sketch);
    }
  }
}

uint64_t DyadicSkimmer::PlanCacheBytesSharedWith(
    const DyadicSkimmer& other) const {
  uint64_t total = 0;
  for (size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].sketch.has_value()) {
      total +=
          levels_[i].sketch->PlanCacheBytesSharedWith(*other.levels_[i].sketch);
    }
  }
  return total;
}

uint64_t DyadicSkimmer::hash_cache_hits() const {
  uint64_t total = 0;
  for (const Level& level : levels_) {
    if (level.sketch.has_value()) total += level.sketch->hash_cache_hits();
  }
  return total;
}

uint64_t DyadicSkimmer::hash_cache_misses() const {
  uint64_t total = 0;
  for (const Level& level : levels_) {
    if (level.sketch.has_value()) total += level.sketch->hash_cache_misses();
  }
  return total;
}

void DyadicSkimmer::Reset() {
  for (Level& level : levels_) {
    if (level.sketch.has_value()) {
      level.sketch->Reset();
    } else {
      level.exact.assign(level.exact.size(), 0);
    }
  }
}

void DyadicSkimmer::Absorb(const stream::FrequencyVector& frequencies) {
  const auto& counts = frequencies.counts();
  SKIMJOIN_CHECK_LE(counts.size(), domain_size_);
  for (uint64_t value = 0; value < counts.size(); ++value) {
    if (counts[value] != 0) Update(value, counts[value]);
  }
}

void DyadicSkimmer::Merge(const DyadicSkimmer& other) {
  SKIMJOIN_CHECK_EQ(domain_size_, other.domain_size_);
  SKIMJOIN_CHECK_EQ(levels_.size(), other.levels_.size());
  for (size_t i = 0; i < levels_.size(); ++i) {
    Level& mine = levels_[i];
    const Level& theirs = other.levels_[i];
    SKIMJOIN_CHECK_EQ(mine.sketch.has_value(), theirs.sketch.has_value());
    if (mine.sketch.has_value()) {
      mine.sketch->Merge(*theirs.sketch);
    } else {
      SKIMJOIN_CHECK_EQ(mine.exact.size(), theirs.exact.size());
      for (size_t p = 0; p < mine.exact.size(); ++p) {
        mine.exact[p] += theirs.exact[p];
      }
    }
  }
}

int64_t DyadicSkimmer::PointEstimate(uint64_t level, uint64_t prefix) const {
  SKIMJOIN_CHECK_GE(level, 1u);
  SKIMJOIN_CHECK_LE(level, levels_.size());
  SKIMJOIN_CHECK_LT(prefix, domain_size_ >> level);
  const Level& l = levels_[level - 1];
  if (l.sketch.has_value()) return l.sketch->PointEstimate(prefix);
  return l.exact[prefix];
}

bool DyadicSkimmer::LevelIsExact(uint64_t level) const {
  SKIMJOIN_CHECK_GE(level, 1u);
  SKIMJOIN_CHECK_LE(level, levels_.size());
  return !levels_[level - 1].sketch.has_value();
}

std::vector<uint64_t> DyadicSkimmer::FindCandidates(int64_t threshold,
                                                    double slack) const {
  SKIMJOIN_CHECK_GE(threshold, 1);
  SKIMJOIN_CHECK(slack > 0.0 && slack <= 1.0);
  const auto cutoff =
      static_cast<int64_t>(std::ceil(slack * static_cast<double>(threshold)));
  std::vector<uint64_t> candidates;
  struct Node {
    uint64_t level;
    uint64_t prefix;
  };
  std::vector<Node> stack;
  const uint64_t top = levels_.size();
  const uint64_t top_prefixes = domain_size_ >> top;  // == 1
  for (uint64_t p = 0; p < top_prefixes; ++p) stack.push_back({top, p});
  while (!stack.empty()) {
    const Node node = stack.back();
    stack.pop_back();
    const int64_t estimate = PointEstimate(node.level, node.prefix);
    if (std::llabs(estimate) < cutoff) continue;
    if (node.level == 1) {
      candidates.push_back(node.prefix * 2);
      candidates.push_back(node.prefix * 2 + 1);
      continue;
    }
    stack.push_back({node.level - 1, node.prefix * 2});
    stack.push_back({node.level - 1, node.prefix * 2 + 1});
  }
  return candidates;
}

void DyadicSkimmer::SubtractDense(uint64_t value, int64_t frequency) {
  Update(value, -frequency);
}

Status DyadicSkimmer::SerializeTo(std::ostream& out) const {
  out << "skimjoin.dyadic_skimmer v3\n" << domain_size_ << '\n';
  for (const Level& level : levels_) {
    if (level.sketch.has_value()) {
      out << "sketch\n";
      SKIMJOIN_RETURN_IF_ERROR(level.sketch->SerializeTo(out));
    } else {
      out << "exact " << level.exact.size() << '\n';
      for (size_t p = 0; p < level.exact.size(); ++p) {
        out << level.exact[p] << (p + 1 == level.exact.size() ? '\n' : ' ');
      }
    }
  }
  out << "end\n";
  if (!out) return IoError("dyadic-skimmer serialization failed");
  return OkStatus();
}

StatusOr<DyadicSkimmer> DyadicSkimmer::DeserializeFrom(std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "skimjoin.dyadic_skimmer" ||
      version != "v3") {
    return InvalidArgumentError("not a skimjoin dyadic-skimmer v3 record");
  }
  uint64_t domain_size = 0;
  if (!(in >> domain_size) || !IsPowerOfTwo(domain_size) || domain_size < 2) {
    return InvalidArgumentError("malformed dyadic-skimmer header");
  }
  const uint64_t num_levels = Log2(domain_size);
  std::vector<Level> levels;
  levels.reserve(num_levels);
  for (uint64_t l = 1; l <= num_levels; ++l) {
    std::string kind;
    if (!(in >> kind)) {
      return InvalidArgumentError("truncated dyadic-skimmer level block");
    }
    Level level;
    if (kind == "sketch") {
      StatusOr<sketch::HashSketch> sketch =
          sketch::HashSketch::DeserializeFrom(in);
      SKIMJOIN_RETURN_IF_ERROR(sketch.status());
      level.sketch = *std::move(sketch);
    } else if (kind == "exact") {
      uint64_t size = 0;
      if (!(in >> size) || size != (domain_size >> l)) {
        return InvalidArgumentError("malformed exact dyadic level header");
      }
      // A hostile record can claim a huge power-of-two domain whose shallow
      // levels would then be "exact" blocks of billions of counters; cap the
      // allocation like any other untrusted counter block.
      SKIMJOIN_RETURN_IF_ERROR(
          sketch::CheckDeserializeDims(1, size, "exact dyadic level"));
      level.exact.resize(size);
      for (int64_t& counter : level.exact) {
        if (!(in >> counter)) {
          return InvalidArgumentError("truncated exact dyadic level block");
        }
      }
    } else {
      return InvalidArgumentError("unknown dyadic level kind: " + kind);
    }
    levels.push_back(std::move(level));
  }
  std::string sentinel;
  if (!(in >> sentinel) || sentinel != "end") {
    return InvalidArgumentError(
        "dyadic-skimmer record missing its end sentinel");
  }
  return DyadicSkimmer(domain_size, std::move(levels));
}

uint64_t DyadicSkimmer::TotalCounters() const {
  uint64_t total = 0;
  for (const Level& level : levels_) {
    total += level.sketch.has_value()
                 ? level.sketch->config().TotalCounters()
                 : level.exact.size();
  }
  return total;
}

SynopsisHealth DyadicSkimmer::HealthProbe() const {
  // Sketched levels all share upper_config, so their row-major counter
  // arrays concatenate into one uniform (levels · num_tables)-table layout.
  std::vector<int64_t> counters;
  uint64_t tables = 0;
  for (const Level& level : levels_) {
    if (!level.sketch.has_value()) continue;
    const std::span<const int64_t> rows = level.sketch->CounterArray();
    counters.insert(counters.end(), rows.begin(), rows.end());
    tables += level.sketch->config().num_tables;
  }
  if (counters.empty()) {
    // Tiny domain: every level exact. Probe the exact arrays for saturation
    // headroom; occupancy inversion does not apply.
    for (const Level& level : levels_) {
      counters.insert(counters.end(), level.exact.begin(), level.exact.end());
    }
    SynopsisHealth health = ProbeCounters(counters, 1);
    health.kind = "dyadic";
    health.collision_pressure = std::numeric_limits<double>::quiet_NaN();
    return health;
  }
  SynopsisHealth health = ProbeCounters(counters, tables);
  health.kind = "dyadic";
  return health;
}

uint64_t DyadicSkimmer::MemoryBytes() const {
  uint64_t total = sizeof(*this);
  for (const Level& level : levels_) {
    total += sizeof(Level) + level.exact.capacity() * sizeof(int64_t);
    if (level.sketch.has_value()) total += level.sketch->MemoryBytes();
  }
  return total;
}

}  // namespace core
}  // namespace skimjoin
