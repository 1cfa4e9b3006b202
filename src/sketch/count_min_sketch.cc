#include "sketch/count_min_sketch.h"

#include <algorithm>
#include <string>

#include "sketch/plan_kernel.h"
#include "sketch/serial_limits.h"
#include "sketch/sketch_seed.h"
#include "util/logging.h"

namespace skimjoin {
namespace sketch {

CountMinSketch::CountMinSketch(const CountMinConfig& config, uint64_t seed)
    : config_(config), seed_(seed) {
  bucket_hashes_.reserve(config.num_tables);
  for (uint64_t table = 0; table < config.num_tables; ++table) {
    Rng rng = FamilyRng(seed, FamilyTag::kCountMinBucket, table);
    bucket_hashes_.emplace_back(config.num_buckets, &rng);
  }
  counters_.assign(config.TotalCounters(), 0);
  SetKernel(Kernel::kFast);
}

void CountMinSketch::SetKernel(Kernel kernel) {
  kernel_ = kernel;
  const bool fast = kernel == Kernel::kFast;
  for (hashing::BucketHash& hash : bucket_hashes_) {
    hash.set_use_fastmod(fast);
  }
  plan_cache_.reset();
}

bool CountMinSketch::UsePlanCache() {
  // Plan words are 32-bit; a bucket count beyond 2^32 cannot be stored, so
  // such shapes run the reference loops (results are identical either way).
  if (!plan_cache_ && kernel_ == Kernel::kFast &&
      config_.num_buckets <= (uint64_t{1} << 32)) {
    plan_cache_.emplace(kPlanCacheSlots, config_.num_tables);
  }
  return plan_cache_.has_value();
}

internal::PlanKernel<false> CountMinSketch::FastKernel() {
  return {bucket_hashes_, {}, counters_, config_.num_buckets,
          &*plan_cache_};
}

StatusOr<CountMinSketch> CountMinSketch::Create(const CountMinConfig& config,
                                                uint64_t seed) {
  if (config.num_tables < 1) {
    return InvalidArgumentError("CountMinConfig.num_tables must be >= 1");
  }
  if (config.num_buckets < 1) {
    return InvalidArgumentError("CountMinConfig.num_buckets must be >= 1");
  }
  return CountMinSketch(config, seed);
}

void CountMinSketch::Update(uint64_t value, int64_t weight) {
  ++update_epoch_;
  if (UsePlanCache()) {
    FastKernel().Update(value, weight);
    return;
  }
  for (uint64_t table = 0; table < config_.num_tables; ++table) {
    counters_[table * config_.num_buckets + bucket_hashes_[table](value)] +=
        weight;
  }
}

void CountMinSketch::UpdateBatch(
    std::span<const stream::StreamElement> elements) {
  ++update_epoch_;
  if (UsePlanCache()) {
    FastKernel().UpdateBatch(elements);
    return;
  }
  // Reference kernel, table-major.
  for (uint64_t table = 0; table < config_.num_tables; ++table) {
    const hashing::BucketHash& bucket = bucket_hashes_[table];
    int64_t* row = &counters_[table * config_.num_buckets];
    for (const stream::StreamElement& element : elements) {
      row[bucket(element.value)] += element.weight;
    }
  }
}

void CountMinSketch::Reset() {
  ++update_epoch_;
  counters_.assign(counters_.size(), 0);
}

void CountMinSketch::Absorb(const stream::FrequencyVector& frequencies) {
  ++update_epoch_;
  const auto& counts = frequencies.counts();
  for (uint64_t value = 0; value < counts.size(); ++value) {
    if (counts[value] != 0) Update(value, counts[value]);
  }
}

int64_t CountMinSketch::PointEstimate(uint64_t value) const {
  int64_t best = INT64_MAX;
  for (uint64_t table = 0; table < config_.num_tables; ++table) {
    best = std::min(
        best,
        counters_[table * config_.num_buckets + bucket_hashes_[table](value)]);
  }
  return best;
}

bool CountMinSketch::CompatibleWith(const CountMinSketch& other) const {
  return config_.num_tables == other.config_.num_tables &&
         config_.num_buckets == other.config_.num_buckets &&
         seed_ == other.seed_;
}

void CountMinSketch::Merge(const CountMinSketch& other) {
  SKIMJOIN_CHECK(CompatibleWith(other)) << "merging incompatible count-min sketches";
  ++update_epoch_;
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
}

Status CountMinSketch::SerializeTo(std::ostream& out) const {
  out << "skimjoin.count_min v1\n"
      << config_.num_tables << ' ' << config_.num_buckets << ' ' << seed_
      << '\n';
  for (size_t i = 0; i < counters_.size(); ++i) {
    out << counters_[i] << (i + 1 == counters_.size() ? '\n' : ' ');
  }
  out << "end\n";
  if (!out) return IoError("Count-Min serialization failed");
  return OkStatus();
}

StatusOr<CountMinSketch> CountMinSketch::DeserializeFrom(std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "skimjoin.count_min" ||
      version != "v1") {
    return InvalidArgumentError("not a skimjoin count-min v1 record");
  }
  CountMinConfig config;
  uint64_t seed = 0;
  if (!(in >> config.num_tables >> config.num_buckets >> seed)) {
    return InvalidArgumentError("malformed count-min header");
  }
  SKIMJOIN_RETURN_IF_ERROR(CheckDeserializeDims(
      config.num_tables, config.num_buckets, "count-min"));
  StatusOr<CountMinSketch> sketch = CountMinSketch::Create(config, seed);
  SKIMJOIN_RETURN_IF_ERROR(sketch.status());
  for (int64_t& counter : sketch->counters_) {
    if (!(in >> counter)) {
      return InvalidArgumentError("truncated count-min counter block");
    }
  }
  std::string sentinel;
  if (!(in >> sentinel) || sentinel != "end") {
    return InvalidArgumentError("count-min record missing its end sentinel");
  }
  return sketch;
}

StatusOr<double> CountMinSketch::EstimateJoinSize(const CountMinSketch& f,
                                                  const CountMinSketch& g) {
  if (!f.CompatibleWith(g)) {
    return InvalidArgumentError(
        "Count-Min join estimation requires sketches with equal configuration "
        "and seed");
  }
  return MinOverTables(PerTableProducts(f, g));
}

std::vector<double> CountMinSketch::PerTableProducts(const CountMinSketch& f,
                                                     const CountMinSketch& g) {
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

double CountMinSketch::MinOverTables(const std::vector<double>& per_table) {
  double best = 0.0;
  bool first = true;
  for (double sum : per_table) {
    if (first || sum < best) {
      best = sum;
      first = false;
    }
  }
  return best;
}

StatusOr<EstimateReport> CountMinSketch::EstimateJoinSizeWithReport(
    const CountMinSketch& f, const CountMinSketch& g) {
  if (!f.CompatibleWith(g)) {
    return InvalidArgumentError(
        "Count-Min join estimation requires sketches with equal configuration "
        "and seed");
  }
  EstimateReport report;
  report.method = "count-min";
  report.copy_estimates = PerTableProducts(f, g);
  report.estimate = MinOverTables(report.copy_estimates);
  // Expected one-table excess over the true inner product is bounded by
  // F1(F)·F1(G)/b for insert-only streams; F1 is recovered exactly as any
  // one table's counter sum. This is a one-sided envelope: truth lies in
  // [estimate - bound, estimate] w.h.p.
  report.apriori_bound = f.TotalWeight() * g.TotalWeight() /
                         static_cast<double>(f.config_.num_buckets);
  FinishReportFromCopies(&report);
  return report;
}

double CountMinSketch::TotalWeight() const {
  double sum = 0.0;
  for (uint64_t k = 0; k < config_.num_buckets; ++k) {
    sum += static_cast<double>(counters_[k]);
  }
  return sum;
}

uint64_t CountMinSketch::MemoryBytes() const {
  uint64_t total = sizeof(*this) + counters_.capacity() * sizeof(int64_t);
  for (const hashing::BucketHash& h : bucket_hashes_) total += h.MemoryBytes();
  if (plan_cache_) total += plan_cache_->MemoryBytes();
  return total;
}

SynopsisHealth CountMinSketch::HealthProbe() const {
  SynopsisHealth health = ProbeCounters(counters_, config_.num_tables);
  health.kind = "count-min";
  return health;
}

}  // namespace sketch
}  // namespace skimjoin
