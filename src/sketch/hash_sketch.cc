#include "sketch/hash_sketch.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "sketch/plan_kernel.h"
#include "sketch/serial_limits.h"
#include "sketch/sketch_seed.h"
#include "util/logging.h"
#include "util/stats.h"

namespace skimjoin {
namespace sketch {

HashSketch::HashSketch(const HashSketchConfig& config, uint64_t seed)
    : config_(config), seed_(seed) {
  bucket_hashes_.reserve(config.num_tables);
  sign_hashes_.reserve(config.num_tables);
  for (uint64_t table = 0; table < config.num_tables; ++table) {
    Rng bucket_rng = FamilyRng(seed, FamilyTag::kHashSketchBucket, table);
    bucket_hashes_.emplace_back(config.num_buckets, &bucket_rng);
    Rng sign_rng = FamilyRng(seed, FamilyTag::kHashSketchSign, table);
    sign_hashes_.emplace_back(&sign_rng);
  }
  counters_.assign(config.TotalCounters(), 0);
  SetKernel(Kernel::kFast);
}

void HashSketch::SetKernel(Kernel kernel, uint64_t cache_slots) {
  kernel_ = kernel;
  const bool fast = kernel == Kernel::kFast;
  for (hashing::BucketHash& hash : bucket_hashes_) {
    hash.set_use_fastmod(fast);
  }
  // Packed (bucket, sign) plan words are 32-bit; a bucket count beyond 2^31
  // cannot pack, so such shapes run the reference loops (with fastmod) —
  // results are identical either way.
  plan_cache_slots_ =
      fast && config_.num_buckets <= (uint64_t{1} << 31) ? cache_slots : 0;
  plan_cache_.reset();
}

bool HashSketch::UsePlanCache() {
  if (!plan_cache_ && plan_cache_slots_ != 0) {
    plan_cache_.emplace(plan_cache_slots_, config_.num_tables);
  }
  return plan_cache_.has_value();
}

internal::PlanKernel<true> HashSketch::FastKernel() {
  return {bucket_hashes_, sign_hashes_, counters_, config_.num_buckets,
          &*plan_cache_};
}

StatusOr<HashSketch> HashSketch::Create(const HashSketchConfig& config,
                                        uint64_t seed) {
  if (config.num_tables < 1) {
    return InvalidArgumentError("HashSketchConfig.num_tables must be >= 1");
  }
  if (config.num_buckets < 1) {
    return InvalidArgumentError("HashSketchConfig.num_buckets must be >= 1");
  }
  return HashSketch(config, seed);
}

void HashSketch::Update(uint64_t value, int64_t weight) {
  ++update_epoch_;
  if (UsePlanCache()) {
    FastKernel().Update(value, weight);
    return;
  }
  for (uint64_t table = 0; table < config_.num_tables; ++table) {
    const uint64_t bucket = bucket_hashes_[table](value);
    counters_[table * config_.num_buckets + bucket] +=
        sign_hashes_[table](value) * weight;
  }
}

void HashSketch::UpdateBatch(std::span<const stream::StreamElement> elements) {
  ++update_epoch_;
  if (UsePlanCache()) {
    FastKernel().UpdateBatch(elements);
    return;
  }
  // Reference kernel, table-major: each table's hash families and counter
  // row stay hot across the whole batch.
  for (uint64_t table = 0; table < config_.num_tables; ++table) {
    const hashing::BucketHash& bucket = bucket_hashes_[table];
    const hashing::SignHash& sign = sign_hashes_[table];
    int64_t* row = &counters_[table * config_.num_buckets];
    for (const stream::StreamElement& element : elements) {
      row[bucket(element.value)] += sign(element.value) * element.weight;
    }
  }
}

void HashSketch::Reset() {
  ++update_epoch_;
  counters_.assign(counters_.size(), 0);
}

void HashSketch::Absorb(const stream::FrequencyVector& frequencies) {
  ++update_epoch_;
  const auto& counts = frequencies.counts();
  for (uint64_t value = 0; value < counts.size(); ++value) {
    if (counts[value] != 0) Update(value, counts[value]);
  }
}

void HashSketch::Merge(const HashSketch& other) {
  SKIMJOIN_CHECK(CompatibleWith(other)) << "merging incompatible hash sketches";
  ++update_epoch_;
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
}

int64_t HashSketch::PointEstimate(uint64_t value) const {
  std::vector<int64_t> estimates;
  estimates.reserve(config_.num_tables);
  for (uint64_t table = 0; table < config_.num_tables; ++table) {
    const uint64_t bucket = bucket_hashes_[table](value);
    estimates.push_back(sign_hashes_[table](value) *
                        counters_[table * config_.num_buckets + bucket]);
  }
  return MedianInt64(std::move(estimates));
}

bool HashSketch::CompatibleWith(const HashSketch& other) const {
  return config_.num_tables == other.config_.num_tables &&
         config_.num_buckets == other.config_.num_buckets &&
         seed_ == other.seed_;
}

StatusOr<double> HashSketch::EstimateJoinSize(const HashSketch& f,
                                              const HashSketch& g) {
  if (!f.CompatibleWith(g)) {
    return InvalidArgumentError(
        "hash-sketch join estimation requires sketches with equal "
        "configuration and seed (shared h_j and ξ_j families)");
  }
  return Median(PerTableJoinProducts(f, g));
}

std::vector<double> HashSketch::PerTableJoinProducts(const HashSketch& f,
                                                     const HashSketch& g) {
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

StatusOr<EstimateReport> HashSketch::EstimateJoinSizeWithReport(
    const HashSketch& f, const HashSketch& g) {
  if (!f.CompatibleWith(g)) {
    return InvalidArgumentError(
        "hash-sketch join estimation requires sketches with equal "
        "configuration and seed (shared h_j and ξ_j families)");
  }
  EstimateReport report;
  report.method = "hash-sketch";
  report.copy_estimates = PerTableJoinProducts(f, g);
  report.estimate = Median(report.copy_estimates);
  const double f2_f = std::max(f.EstimateSelfJoinSize(), 0.0);
  const double f2_g = std::max(g.EstimateSelfJoinSize(), 0.0);
  report.apriori_bound = 4.0 * std::sqrt(f2_f * f2_g /
                                         static_cast<double>(
                                             f.config_.num_buckets));
  FinishReportFromCopies(&report);
  return report;
}

Status HashSketch::SerializeTo(std::ostream& out) const {
  out << "skimjoin.hash_sketch v2\n"
      << config_.num_tables << ' ' << config_.num_buckets << ' ' << seed_
      << '\n';
  for (size_t i = 0; i < counters_.size(); ++i) {
    out << counters_[i] << (i + 1 == counters_.size() ? '\n' : ' ');
  }
  // Trailing sentinel: lets the reader tell a complete counter block from
  // one truncated exactly at a counter boundary.
  out << "end\n";
  if (!out) return IoError("hash-sketch serialization failed");
  return OkStatus();
}

StatusOr<HashSketch> HashSketch::DeserializeFrom(std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "skimjoin.hash_sketch" ||
      version != "v2") {
    return InvalidArgumentError("not a skimjoin hash-sketch v2 record");
  }
  HashSketchConfig config;
  uint64_t seed = 0;
  if (!(in >> config.num_tables >> config.num_buckets >> seed)) {
    return InvalidArgumentError("malformed hash-sketch header");
  }
  // Validate the untrusted dimensions BEFORE Create allocates counters (a
  // hostile header could otherwise demand a multi-GB assign).
  SKIMJOIN_RETURN_IF_ERROR(CheckDeserializeDims(
      config.num_tables, config.num_buckets, "hash-sketch"));
  StatusOr<HashSketch> sketch = HashSketch::Create(config, seed);
  SKIMJOIN_RETURN_IF_ERROR(sketch.status());
  for (int64_t& counter : sketch->counters_) {
    if (!(in >> counter)) {
      return InvalidArgumentError("truncated hash-sketch counter block");
    }
  }
  std::string sentinel;
  if (!(in >> sentinel) || sentinel != "end") {
    return InvalidArgumentError("hash-sketch record missing its end sentinel");
  }
  return sketch;
}

double HashSketch::EstimateSelfJoinSize() const {
  StatusOr<double> result = EstimateJoinSize(*this, *this);
  SKIMJOIN_CHECK(result.ok());
  return *result;
}

EstimateReport HashSketch::EstimateSelfJoinSizeWithReport() const {
  StatusOr<EstimateReport> report = EstimateJoinSizeWithReport(*this, *this);
  SKIMJOIN_CHECK(report.ok());
  report->method = "hash-sketch-selfjoin";
  return *std::move(report);
}

uint64_t HashSketch::MemoryBytes() const {
  uint64_t total = sizeof(*this) + counters_.capacity() * sizeof(int64_t);
  for (const hashing::BucketHash& h : bucket_hashes_) total += h.MemoryBytes();
  for (const hashing::SignHash& h : sign_hashes_) total += h.MemoryBytes();
  if (plan_cache_) total += plan_cache_->MemoryBytes();
  return total;
}

SynopsisHealth HashSketch::HealthProbe() const {
  SynopsisHealth health = ProbeCounters(counters_, config_.num_tables);
  health.kind = "hash-sketch";
  return health;
}

}  // namespace sketch
}  // namespace skimjoin
