#include "sketch/agms_sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "hashing/simd_hash.h"
#include "sketch/serial_limits.h"
#include "sketch/sketch_seed.h"
#include "util/logging.h"
#include "util/stats.h"

namespace skimjoin {
namespace sketch {

AgmsSketch::AgmsSketch(const AgmsConfig& config, uint64_t seed)
    : config_(config), seed_(seed) {
  const uint64_t cells = config.TotalCounters();
  signs_.reserve(cells);
  for (uint64_t cell = 0; cell < cells; ++cell) {
    Rng rng = FamilyRng(seed, FamilyTag::kAgmsSign, cell);
    signs_.emplace_back(&rng);
  }
  counters_.assign(cells, 0);
}

StatusOr<AgmsSketch> AgmsSketch::Create(const AgmsConfig& config,
                                        uint64_t seed) {
  if (config.num_means < 1) {
    return InvalidArgumentError("AgmsConfig.num_means must be >= 1");
  }
  if (config.num_medians < 1) {
    return InvalidArgumentError("AgmsConfig.num_medians must be >= 1");
  }
  // Every cell builds its own four-wise family beside its counter: the
  // footprint is held to the cap the record reader applies.
  SKIMJOIN_RETURN_IF_ERROR(
      CheckDeserializeFootprint(config.num_means, config.num_medians,
                                config.num_medians, "AGMS-sketch"));
  return AgmsSketch(config, seed);
}

void AgmsSketch::Update(uint64_t value, int64_t weight) {
  for (size_t cell = 0; cell < counters_.size(); ++cell) {
    counters_[cell] += signs_[cell](value) * weight;
  }
}

void AgmsSketch::UpdateBatch(std::span<const stream::StreamElement> elements) {
  if (kernel_ == Kernel::kReference) {
    // Cell-major reference kernel: one pass over the whole batch per cell,
    // so each ξ family stays hot but large batches stream from L2+.
    for (size_t cell = 0; cell < counters_.size(); ++cell) {
      const hashing::SignHash& sign = signs_[cell];
      int64_t sum = 0;
      for (const stream::StreamElement& element : elements) {
        sum += sign(element.value) * element.weight;
      }
      counters_[cell] += sum;
    }
    return;
  }
  // Blocked kernel: element blocks outer, cells inner, so the block's
  // elements are read from L1 for all s1·s2 ξ evaluations. Per-cell block
  // partial sums regroup the same integer additions, so final counters are
  // bit-identical to the reference kernel.
  constexpr size_t block = kBatchBlockSize;
  const hashing::SimdLevel simd = hashing::DetectSimdLevel();
  if (simd != hashing::SimdLevel::kScalar) {
    // SIMD kernel: the block's values deinterleave once into a contiguous
    // scratch shared by every cell, then each cell's four-wise ξ polynomial
    // evaluates over the whole block in vector lanes. The per-cell partial
    // sums keep the blocked kernel's exact grouping, so counters remain
    // bit-identical to both scalar kernels (the one below runs under
    // SKIMJOIN_FORCE_SCALAR=1 or on CPUs without AVX2).
    static thread_local std::vector<uint64_t> value_scratch;
    static thread_local std::vector<uint64_t> hash_scratch;
    for (size_t begin = 0; begin < elements.size(); begin += block) {
      const std::span<const stream::StreamElement> chunk =
          elements.subspan(begin, std::min(block, elements.size() - begin));
      const size_t n = chunk.size();
      value_scratch.resize(n);
      hash_scratch.resize(n);
      for (size_t i = 0; i < n; ++i) value_scratch[i] = chunk[i].value;
      for (size_t cell = 0; cell < counters_.size(); ++cell) {
        hashing::PolyEvalBlock(signs_[cell].poly().coefficients(),
                               value_scratch.data(), n, hash_scratch.data(),
                               simd);
        int64_t sum = 0;
        for (size_t i = 0; i < n; ++i) {
          // ξ(v) = 1 - 2·(h(v) & 1), exactly SignHash::operator().
          sum += (int64_t{1} -
                  2 * static_cast<int64_t>(hash_scratch[i] & 1)) *
                 chunk[i].weight;
        }
        counters_[cell] += sum;
      }
    }
    return;
  }
  for (size_t begin = 0; begin < elements.size(); begin += block) {
    const std::span<const stream::StreamElement> chunk =
        elements.subspan(begin, std::min(block, elements.size() - begin));
    for (size_t cell = 0; cell < counters_.size(); ++cell) {
      const hashing::SignHash& sign = signs_[cell];
      int64_t sum = 0;
      for (const stream::StreamElement& element : chunk) {
        sum += sign(element.value) * element.weight;
      }
      counters_[cell] += sum;
    }
  }
}

void AgmsSketch::Reset() { counters_.assign(counters_.size(), 0); }

void AgmsSketch::Absorb(const stream::FrequencyVector& frequencies) {
  const auto& counts = frequencies.counts();
  for (uint64_t value = 0; value < counts.size(); ++value) {
    if (counts[value] != 0) Update(value, counts[value]);
  }
}

void AgmsSketch::Merge(const AgmsSketch& other) {
  SKIMJOIN_CHECK(CompatibleWith(other)) << "merging incompatible AGMS sketches";
  for (size_t cell = 0; cell < counters_.size(); ++cell) {
    counters_[cell] += other.counters_[cell];
  }
}

bool AgmsSketch::CompatibleWith(const AgmsSketch& other) const {
  return config_.num_means == other.config_.num_means &&
         config_.num_medians == other.config_.num_medians &&
         seed_ == other.seed_;
}

std::vector<double> AgmsSketch::PerMedianAverages(const AgmsSketch& f,
                                                  const AgmsSketch& g) {
  std::vector<double> averages;
  averages.reserve(f.config_.num_medians);
  for (uint64_t j = 0; j < f.config_.num_medians; ++j) {
    double sum = 0.0;
    for (uint64_t i = 0; i < f.config_.num_means; ++i) {
      const uint64_t cell = f.CellIndex(i, j);
      sum += static_cast<double>(f.counters_[cell]) *
             static_cast<double>(g.counters_[cell]);
    }
    averages.push_back(sum / static_cast<double>(f.config_.num_means));
  }
  return averages;
}

StatusOr<double> AgmsSketch::EstimateJoinSize(const AgmsSketch& f,
                                              const AgmsSketch& g) {
  if (!f.CompatibleWith(g)) {
    return InvalidArgumentError(
        "AGMS join estimation requires sketches with equal configuration and "
        "seed (shared ξ families)");
  }
  return Median(PerMedianAverages(f, g));
}

StatusOr<EstimateReport> AgmsSketch::EstimateJoinSizeWithReport(
    const AgmsSketch& f, const AgmsSketch& g) {
  if (!f.CompatibleWith(g)) {
    return InvalidArgumentError(
        "AGMS join estimation requires sketches with equal configuration and "
        "seed (shared ξ families)");
  }
  EstimateReport report;
  report.method = "agms";
  report.copy_estimates = PerMedianAverages(f, g);
  report.estimate = Median(report.copy_estimates);
  // Theorem 1's variance term: |estimate - true| <= 4·sqrt(F2(F)·F2(G)/s1)
  // w.h.p.; evaluated with the sketches' own (clamped) self-join estimates.
  const double f2_f = std::max(f.EstimateSelfJoinSize(), 0.0);
  const double f2_g = std::max(g.EstimateSelfJoinSize(), 0.0);
  report.apriori_bound =
      4.0 * std::sqrt(f2_f * f2_g / static_cast<double>(f.config_.num_means));
  FinishReportFromCopies(&report);
  return report;
}

double AgmsSketch::EstimateSelfJoinSize() const {
  StatusOr<double> result = EstimateJoinSize(*this, *this);
  SKIMJOIN_CHECK(result.ok());
  return *result;
}

EstimateReport AgmsSketch::EstimateSelfJoinSizeWithReport() const {
  StatusOr<EstimateReport> report = EstimateJoinSizeWithReport(*this, *this);
  SKIMJOIN_CHECK(report.ok());
  report->method = "agms-selfjoin";
  return *std::move(report);
}

Status AgmsSketch::SerializeTo(std::ostream& out) const {
  out << "skimjoin.agms_sketch v2\n"
      << config_.num_means << ' ' << config_.num_medians << ' ' << seed_
      << '\n';
  WriteCounterBlock(out, counters_);
  if (!out) return IoError("AGMS-sketch serialization failed");
  return OkStatus();
}

StatusOr<AgmsSketch> AgmsSketch::DeserializeFrom(std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "skimjoin.agms_sketch" ||
      version != "v2") {
    return InvalidArgumentError("not a skimjoin AGMS-sketch v2 record");
  }
  AgmsConfig config;
  uint64_t seed = 0;
  if (!(in >> config.num_means >> config.num_medians >> seed)) {
    return InvalidArgumentError("malformed AGMS-sketch header");
  }
  // Every cell builds its own four-wise family before a counter is read.
  SKIMJOIN_RETURN_IF_ERROR(
      CheckDeserializeFootprint(config.num_means, config.num_medians,
                                config.num_medians, "AGMS-sketch"));
  StatusOr<AgmsSketch> sketch = AgmsSketch::Create(config, seed);
  SKIMJOIN_RETURN_IF_ERROR(sketch.status());
  SKIMJOIN_RETURN_IF_ERROR(
      ReadCounterBlock(in, sketch->counters_, "AGMS-sketch"));
  return sketch;
}

int64_t AgmsSketch::counter(uint64_t mean_index, uint64_t median_index) const {
  SKIMJOIN_CHECK_LT(mean_index, config_.num_means);
  SKIMJOIN_CHECK_LT(median_index, config_.num_medians);
  return counters_[CellIndex(mean_index, median_index)];
}

uint64_t AgmsSketch::MemoryBytes() const {
  uint64_t total = sizeof(*this) + counters_.capacity() * sizeof(int64_t);
  for (const hashing::SignHash& h : signs_) total += h.MemoryBytes();
  return total;
}

SynopsisHealth AgmsSketch::HealthProbe() const {
  SynopsisHealth health = ProbeCounters(counters_, config_.num_medians);
  health.kind = "agms";
  // Every update touches every cell; occupancy-derived collision pressure
  // carries no sizing signal here.
  health.collision_pressure = std::numeric_limits<double>::quiet_NaN();
  return health;
}

}  // namespace sketch
}  // namespace skimjoin
