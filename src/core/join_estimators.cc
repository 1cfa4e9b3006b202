#include "core/join_estimators.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/skimmed_sketch.h"
#include "sketch/agms_sketch.h"
#include "sketch/count_min_sketch.h"
#include "sketch/hash_sketch.h"
#include "sketch/reservoir_sample.h"
#include "util/logging.h"

namespace skimjoin {
namespace core {

const char* EstimatorKindName(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kAgms:
      return "agms";
    case EstimatorKind::kHashSketch:
      return "hash-sketch";
    case EstimatorKind::kSkimmedSketch:
      return "skimmed";
    case EstimatorKind::kCountMin:
      return "count-min";
    case EstimatorKind::kSampling:
      return "sampling";
    case EstimatorKind::kPartitionedAgms:
      return "partitioned-agms";
  }
  return "unknown";
}

void JoinEstimatorPair::AbsorbF(const stream::FrequencyVector& frequencies) {
  const auto& counts = frequencies.counts();
  for (uint64_t value = 0; value < counts.size(); ++value) {
    if (counts[value] != 0) UpdateF(value, counts[value]);
  }
}

void JoinEstimatorPair::AbsorbG(const stream::FrequencyVector& frequencies) {
  const auto& counts = frequencies.counts();
  for (uint64_t value = 0; value < counts.size(); ++value) {
    if (counts[value] != 0) UpdateG(value, counts[value]);
  }
}

StatusOr<EstimateReport> JoinEstimatorPair::EstimateWithReport() const {
  StatusOr<double> estimate = Estimate();
  SKIMJOIN_RETURN_IF_ERROR(estimate.status());
  EstimateReport report;
  report.method = Name();
  report.estimate = *estimate;
  FinishReportFromCopies(&report);
  return report;
}

Status JoinEstimatorPair::SerializeTo(std::ostream&) const {
  return UnimplementedError(std::string("join estimator '") + Name() +
                            "' does not support serialization");
}

Status JoinEstimatorPair::RestoreFrom(std::istream&) {
  return UnimplementedError(std::string("join estimator '") + Name() +
                            "' does not support serialization");
}

Status JoinEstimatorPair::MergeFrom(std::istream&) {
  return UnimplementedError(std::string("join estimator '") + Name() +
                            "' does not support merging");
}

namespace {

// Shared framing for the serializable pair classes: one tagged header line
// naming the concrete method, then the F and G synopsis records.
Status WritePairHeader(std::ostream& out, const char* kind) {
  out << "skimjoin.join_pair v1 " << kind << '\n';
  if (!out) return IoError("join-pair serialization failed");
  return OkStatus();
}

Status ReadPairHeader(std::istream& in, const char* kind) {
  std::string tag, version, recorded_kind;
  if (!(in >> tag >> version >> recorded_kind) ||
      tag != "skimjoin.join_pair" || version != "v1") {
    return InvalidArgumentError("not a skimjoin join-pair v1 record");
  }
  if (recorded_kind != kind) {
    return InvalidArgumentError("join-pair record holds method '" +
                                recorded_kind + "', expected '" + kind + "'");
  }
  return OkStatus();
}

// Shared by the sketch-backed pairs' HealthProbe overrides: probe both
// synopses and tag which stream each probe belongs to.
template <typename Sketch>
std::vector<SynopsisHealth> ProbePair(const Sketch& f, const Sketch& g) {
  std::vector<SynopsisHealth> probes;
  probes.reserve(2);
  probes.push_back(f.HealthProbe());
  probes.back().role = "f";
  probes.push_back(g.HealthProbe());
  probes.back().role = "g";
  return probes;
}

template <typename Sketch>
Status SerializePair(std::ostream& out, const char* kind, const Sketch& f,
                     const Sketch& g) {
  SKIMJOIN_RETURN_IF_ERROR(WritePairHeader(out, kind));
  SKIMJOIN_RETURN_IF_ERROR(f.SerializeTo(out));
  return g.SerializeTo(out);
}

/// Reads one pair record and replaces `*f`, `*g` with it or, with `merge`,
/// adds it counter-for-counter.
template <typename Sketch>
Status RestorePair(std::istream& in, const char* kind, bool merge, Sketch* f,
                   Sketch* g) {
  SKIMJOIN_RETURN_IF_ERROR(ReadPairHeader(in, kind));
  SKIMJOIN_ASSIGN_OR_RETURN(Sketch restored_f, Sketch::DeserializeFrom(in));
  SKIMJOIN_ASSIGN_OR_RETURN(Sketch restored_g, Sketch::DeserializeFrom(in));
  // The pair was created from the record's spec + seed, so a shape/seed
  // mismatch means the record belongs to a different query — refuse
  // rather than splice in foreign hash families.
  if (!restored_f.CompatibleWith(*f) || !restored_g.CompatibleWith(*g)) {
    return InvalidArgumentError(
        std::string("join-pair record for '") + kind +
        "' is incompatible with this pair's configuration");
  }
  if (merge) {
    f->Merge(restored_f);
    g->Merge(restored_g);
  } else {
    *f = std::move(restored_f);
    *g = std::move(restored_g);
  }
  return OkStatus();
}

class AgmsPair final : public JoinEstimatorPair {
 public:
  AgmsPair(sketch::AgmsSketch f, sketch::AgmsSketch g)
      : f_(std::move(f)), g_(std::move(g)) {}

  void UpdateF(uint64_t value, int64_t weight) override {
    f_.Update(value, weight);
  }
  void UpdateG(uint64_t value, int64_t weight) override {
    g_.Update(value, weight);
  }
  StatusOr<double> Estimate() const override {
    return sketch::AgmsSketch::EstimateJoinSize(f_, g_);
  }
  StatusOr<EstimateReport> EstimateWithReport() const override {
    return sketch::AgmsSketch::EstimateJoinSizeWithReport(f_, g_);
  }
  uint64_t SpaceCounters() const override {
    return f_.config().TotalCounters();
  }
  uint64_t MemoryBytes() const override {
    return f_.MemoryBytes() + g_.MemoryBytes();
  }
  const char* Name() const override {
    return EstimatorKindName(EstimatorKind::kAgms);
  }
  Status SerializeTo(std::ostream& out) const override {
    return SerializePair(out, Name(), f_, g_);
  }
  Status RestoreFrom(std::istream& in) override {
    return RestorePair(in, Name(), /*merge=*/false, &f_, &g_);
  }
  Status MergeFrom(std::istream& in) override {
    return RestorePair(in, Name(), /*merge=*/true, &f_, &g_);
  }

  std::vector<SynopsisHealth> HealthProbe() const override {
    return ProbePair(f_, g_);
  }

 private:
  sketch::AgmsSketch f_;
  sketch::AgmsSketch g_;
};

class HashSketchPair final : public JoinEstimatorPair {
 public:
  HashSketchPair(sketch::HashSketch f, sketch::HashSketch g)
      : f_(std::move(f)), g_(std::move(g)) {}

  void UpdateF(uint64_t value, int64_t weight) override {
    f_.Update(value, weight);
  }
  void UpdateG(uint64_t value, int64_t weight) override {
    g_.Update(value, weight);
  }
  StatusOr<double> Estimate() const override {
    return sketch::HashSketch::EstimateJoinSize(f_, g_);
  }
  StatusOr<EstimateReport> EstimateWithReport() const override {
    return sketch::HashSketch::EstimateJoinSizeWithReport(f_, g_);
  }
  uint64_t SpaceCounters() const override {
    return f_.config().TotalCounters();
  }
  uint64_t MemoryBytes() const override {
    return f_.MemoryBytes() + g_.MemoryBytes();
  }
  const char* Name() const override {
    return EstimatorKindName(EstimatorKind::kHashSketch);
  }
  Status SerializeTo(std::ostream& out) const override {
    return SerializePair(out, Name(), f_, g_);
  }
  Status RestoreFrom(std::istream& in) override {
    return RestorePair(in, Name(), /*merge=*/false, &f_, &g_);
  }
  Status MergeFrom(std::istream& in) override {
    return RestorePair(in, Name(), /*merge=*/true, &f_, &g_);
  }

  std::vector<SynopsisHealth> HealthProbe() const override {
    return ProbePair(f_, g_);
  }

 private:
  sketch::HashSketch f_;
  sketch::HashSketch g_;
};

class SkimmedPair final : public JoinEstimatorPair {
 public:
  SkimmedPair(SkimmedSketch f, SkimmedSketch g)
      : f_(std::move(f)), g_(std::move(g)) {}

  void UpdateF(uint64_t value, int64_t weight) override {
    f_.Update(value, weight);
  }
  void UpdateG(uint64_t value, int64_t weight) override {
    g_.Update(value, weight);
  }
  StatusOr<double> Estimate() const override {
    return SkimmedSketch::EstimateJoinSize(f_, g_);
  }
  StatusOr<EstimateReport> EstimateWithReport() const override {
    return SkimmedSketch::EstimateJoinSizeWithReport(f_, g_);
  }
  uint64_t SpaceCounters() const override { return f_.TotalCounters(); }
  uint64_t MemoryBytes() const override {
    return f_.MemoryBytes() + g_.MemoryBytes();
  }
  const char* Name() const override {
    return EstimatorKindName(EstimatorKind::kSkimmedSketch);
  }
  Status SerializeTo(std::ostream& out) const override {
    return SerializePair(out, Name(), f_, g_);
  }
  Status RestoreFrom(std::istream& in) override {
    return RestorePair(in, Name(), /*merge=*/false, &f_, &g_);
  }
  Status MergeFrom(std::istream& in) override {
    return RestorePair(in, Name(), /*merge=*/true, &f_, &g_);
  }

  std::vector<SynopsisHealth> HealthProbe() const override {
    return ProbePair(f_, g_);
  }

 private:
  SkimmedSketch f_;
  SkimmedSketch g_;
};

class CountMinPair final : public JoinEstimatorPair {
 public:
  CountMinPair(sketch::CountMinSketch f, sketch::CountMinSketch g)
      : f_(std::move(f)), g_(std::move(g)) {}

  void UpdateF(uint64_t value, int64_t weight) override {
    f_.Update(value, weight);
  }
  void UpdateG(uint64_t value, int64_t weight) override {
    g_.Update(value, weight);
  }
  StatusOr<double> Estimate() const override {
    return sketch::CountMinSketch::EstimateJoinSize(f_, g_);
  }
  StatusOr<EstimateReport> EstimateWithReport() const override {
    return sketch::CountMinSketch::EstimateJoinSizeWithReport(f_, g_);
  }
  uint64_t SpaceCounters() const override {
    return f_.config().TotalCounters();
  }
  uint64_t MemoryBytes() const override {
    return f_.MemoryBytes() + g_.MemoryBytes();
  }
  const char* Name() const override {
    return EstimatorKindName(EstimatorKind::kCountMin);
  }
  Status SerializeTo(std::ostream& out) const override {
    return SerializePair(out, Name(), f_, g_);
  }
  Status RestoreFrom(std::istream& in) override {
    return RestorePair(in, Name(), /*merge=*/false, &f_, &g_);
  }
  Status MergeFrom(std::istream& in) override {
    return RestorePair(in, Name(), /*merge=*/true, &f_, &g_);
  }

  std::vector<SynopsisHealth> HealthProbe() const override {
    return ProbePair(f_, g_);
  }

 private:
  sketch::CountMinSketch f_;
  sketch::CountMinSketch g_;
};

class PartitionedAgmsPair final : public JoinEstimatorPair {
 public:
  PartitionedAgmsPair(sketch::PartitionedAgmsSketch f,
                      sketch::PartitionedAgmsSketch g)
      : f_(std::move(f)), g_(std::move(g)) {}

  void UpdateF(uint64_t value, int64_t weight) override {
    f_.Update(value, weight);
  }
  void UpdateG(uint64_t value, int64_t weight) override {
    g_.Update(value, weight);
  }
  StatusOr<double> Estimate() const override {
    return sketch::PartitionedAgmsSketch::EstimateJoinSize(f_, g_);
  }
  uint64_t SpaceCounters() const override { return f_.TotalCounters(); }
  uint64_t MemoryBytes() const override {
    return f_.MemoryBytes() + g_.MemoryBytes();
  }
  const char* Name() const override {
    return EstimatorKindName(EstimatorKind::kPartitionedAgms);
  }

 private:
  sketch::PartitionedAgmsSketch f_;
  sketch::PartitionedAgmsSketch g_;
};

class SamplingPair final : public JoinEstimatorPair {
 public:
  SamplingPair(sketch::ReservoirSample f, sketch::ReservoirSample g)
      : f_(std::move(f)), g_(std::move(g)) {}

  void UpdateF(uint64_t value, int64_t weight) override {
    f_.Update(value, weight);
  }
  void UpdateG(uint64_t value, int64_t weight) override {
    g_.Update(value, weight);
  }
  // A sample is not a linear synopsis: expand frequency vectors into unit
  // inserts.
  void AbsorbF(const stream::FrequencyVector& frequencies) override {
    AbsorbInto(&f_, frequencies);
  }
  void AbsorbG(const stream::FrequencyVector& frequencies) override {
    AbsorbInto(&g_, frequencies);
  }
  StatusOr<double> Estimate() const override {
    return sketch::ReservoirSample::EstimateJoinSize(f_, g_);
  }
  uint64_t SpaceCounters() const override { return f_.capacity(); }
  uint64_t MemoryBytes() const override {
    return f_.MemoryBytes() + g_.MemoryBytes();
  }
  const char* Name() const override {
    return EstimatorKindName(EstimatorKind::kSampling);
  }

 private:
  static void AbsorbInto(sketch::ReservoirSample* sample,
                         const stream::FrequencyVector& frequencies) {
    const auto& counts = frequencies.counts();
    for (uint64_t value = 0; value < counts.size(); ++value) {
      SKIMJOIN_CHECK_GE(counts[value], 0)
          << "sampling cannot absorb negative frequencies";
      for (int64_t i = 0; i < counts[value]; ++i) sample->Update(value, 1);
    }
  }

  sketch::ReservoirSample f_;
  sketch::ReservoirSample g_;
};

}  // namespace

StatusOr<std::unique_ptr<JoinEstimatorPair>> CreateJoinEstimatorPair(
    const EstimatorSpec& spec, uint64_t seed) {
  if (spec.space_counters < 1) {
    return InvalidArgumentError("EstimatorSpec.space_counters must be >= 1");
  }
  switch (spec.kind) {
    case EstimatorKind::kAgms: {
      if (spec.agms_num_medians < 1 ||
          spec.space_counters < spec.agms_num_medians) {
        return InvalidArgumentError(
            "AGMS spec needs 1 <= agms_num_medians <= space_counters");
      }
      sketch::AgmsConfig config;
      config.num_medians = spec.agms_num_medians;
      config.num_means = spec.space_counters / spec.agms_num_medians;
      StatusOr<sketch::AgmsSketch> f = sketch::AgmsSketch::Create(config, seed);
      SKIMJOIN_RETURN_IF_ERROR(f.status());
      StatusOr<sketch::AgmsSketch> g = sketch::AgmsSketch::Create(config, seed);
      SKIMJOIN_RETURN_IF_ERROR(g.status());
      return std::unique_ptr<JoinEstimatorPair>(
          new AgmsPair(*std::move(f), *std::move(g)));
    }
    case EstimatorKind::kHashSketch: {
      if (spec.num_tables < 1 || spec.space_counters < spec.num_tables) {
        return InvalidArgumentError(
            "hash-sketch spec needs 1 <= num_tables <= space_counters");
      }
      sketch::HashSketchConfig config;
      config.num_tables = spec.num_tables;
      config.num_buckets = spec.space_counters / spec.num_tables;
      StatusOr<sketch::HashSketch> f = sketch::HashSketch::Create(config, seed);
      SKIMJOIN_RETURN_IF_ERROR(f.status());
      StatusOr<sketch::HashSketch> g = sketch::HashSketch::Create(config, seed);
      SKIMJOIN_RETURN_IF_ERROR(g.status());
      return std::unique_ptr<JoinEstimatorPair>(
          new HashSketchPair(*std::move(f), *std::move(g)));
    }
    case EstimatorKind::kSkimmedSketch: {
      if (spec.num_tables < 1 || spec.space_counters < spec.num_tables) {
        return InvalidArgumentError(
            "skimmed-sketch spec needs 1 <= num_tables <= space_counters");
      }
      SkimmedSketchConfig config;
      config.domain_size = spec.domain_size;
      config.num_tables = spec.num_tables;
      config.threshold_scale = spec.threshold_scale;
      config.recurse_slack = spec.recurse_slack;
      config.skim_margin = spec.skim_margin;
      config.use_dyadic_skim = spec.skimmed_use_dyadic;
      SKIMJOIN_RETURN_IF_ERROR(SplitSpaceBudget(spec.space_counters, &config));
      StatusOr<SkimmedSketch> f = SkimmedSketch::Create(config, seed);
      SKIMJOIN_RETURN_IF_ERROR(f.status());
      StatusOr<SkimmedSketch> g = SkimmedSketch::Create(config, seed);
      SKIMJOIN_RETURN_IF_ERROR(g.status());
      return std::unique_ptr<JoinEstimatorPair>(
          new SkimmedPair(*std::move(f), *std::move(g)));
    }
    case EstimatorKind::kCountMin: {
      if (spec.num_tables < 1 || spec.space_counters < spec.num_tables) {
        return InvalidArgumentError(
            "count-min spec needs 1 <= num_tables <= space_counters");
      }
      sketch::CountMinConfig config;
      config.num_tables = spec.num_tables;
      config.num_buckets = spec.space_counters / spec.num_tables;
      StatusOr<sketch::CountMinSketch> f =
          sketch::CountMinSketch::Create(config, seed);
      SKIMJOIN_RETURN_IF_ERROR(f.status());
      StatusOr<sketch::CountMinSketch> g =
          sketch::CountMinSketch::Create(config, seed);
      SKIMJOIN_RETURN_IF_ERROR(g.status());
      return std::unique_ptr<JoinEstimatorPair>(
          new CountMinPair(*std::move(f), *std::move(g)));
    }
    case EstimatorKind::kPartitionedAgms: {
      if (spec.partition_plan == nullptr) {
        return InvalidArgumentError(
            "partitioned AGMS requires EstimatorSpec.partition_plan (built "
            "from a-priori frequency statistics via sketch::PlanPartitions)");
      }
      StatusOr<sketch::PartitionedAgmsSketch> f =
          sketch::PartitionedAgmsSketch::Create(*spec.partition_plan, seed);
      SKIMJOIN_RETURN_IF_ERROR(f.status());
      StatusOr<sketch::PartitionedAgmsSketch> g =
          sketch::PartitionedAgmsSketch::Create(*spec.partition_plan, seed);
      SKIMJOIN_RETURN_IF_ERROR(g.status());
      return std::unique_ptr<JoinEstimatorPair>(
          new PartitionedAgmsPair(*std::move(f), *std::move(g)));
    }
    case EstimatorKind::kSampling: {
      StatusOr<sketch::ReservoirSample> f =
          sketch::ReservoirSample::Create(spec.space_counters, seed);
      SKIMJOIN_RETURN_IF_ERROR(f.status());
      StatusOr<sketch::ReservoirSample> g =
          sketch::ReservoirSample::Create(spec.space_counters, seed + 1);
      SKIMJOIN_RETURN_IF_ERROR(g.status());
      return std::unique_ptr<JoinEstimatorPair>(
          new SamplingPair(*std::move(f), *std::move(g)));
    }
  }
  return InvalidArgumentError("unknown estimator kind");
}

}  // namespace core
}  // namespace skimjoin
