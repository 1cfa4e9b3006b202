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
  report.health = HealthProbe();
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

/// The one pair class of the linear sketch families (AGMS, hash sketch,
/// skimmed sketch, Count-Min): two synopses built from one config and
/// seed, estimated by the family's static EstimateJoinSize{,WithReport},
/// and serialized as one tagged header line naming `kKind` followed by the
/// F and G records.
///
/// Both sides hash with the same families, so a value's plan is the same
/// on either side: the families with plan caches keep one per pair (per
/// level), built by the first update of either side. A pair that never
/// ingests (a coordinator's) holds none. Both sides are updated by the
/// pair's one writer, which is what lets them share it.
template <typename Sketch, EstimatorKind kKind>
class SketchPair final : public JoinEstimatorPair {
 public:
  SketchPair(Sketch f, Sketch g) : f_(std::move(f)), g_(std::move(g)) {}

  void UpdateF(uint64_t value, int64_t weight) override {
    SharePlanCache();
    f_.Update(value, weight);
  }
  void UpdateG(uint64_t value, int64_t weight) override {
    SharePlanCache();
    g_.Update(value, weight);
  }
  StatusOr<double> Estimate() const override {
    return Sketch::EstimateJoinSize(f_, g_);
  }
  StatusOr<EstimateReport> EstimateWithReport() const override {
    StatusOr<EstimateReport> report =
        Sketch::EstimateJoinSizeWithReport(f_, g_);
    if (!report.ok()) return report;
    // A skimmed sketch's probes read the skims this estimate just made
    // rather than skimming each side a second time.
    if constexpr (kKind == EstimatorKind::kSkimmedSketch) {
      report->health =
          WithRoles(f_.HealthProbeAtEstimate(), g_.HealthProbeAtEstimate());
    } else {
      report->health = HealthProbe();
    }
    return report;
  }
  uint64_t SpaceCounters() const override {
    if constexpr (requires { f_.TotalCounters(); }) {
      return f_.TotalCounters();
    } else {
      return f_.config().TotalCounters();
    }
  }
  uint64_t MemoryBytes() const override {
    uint64_t total = f_.MemoryBytes() + g_.MemoryBytes();
    if constexpr (kHasPlanCache) total -= g_.PlanCacheBytesSharedWith(f_);
    return total;
  }
  const char* Name() const override { return EstimatorKindName(kKind); }

  Status SerializeTo(std::ostream& out) const override {
    out << "skimjoin.join_pair v1 " << Name() << '\n';
    if (!out) return IoError("join-pair serialization failed");
    SKIMJOIN_RETURN_IF_ERROR(f_.SerializeTo(out));
    return g_.SerializeTo(out);
  }
  Status RestoreFrom(std::istream& in) override {
    return Restore(in, /*merge=*/false);
  }
  Status MergeFrom(std::istream& in) override {
    return Restore(in, /*merge=*/true);
  }

  std::vector<SynopsisHealth> HealthProbe() const override {
    return WithRoles(f_.HealthProbe(), g_.HealthProbe());
  }

 private:
  static constexpr bool kHasPlanCache =
      requires(Sketch& a, Sketch& b) { a.AdoptPlanCache(b); };

  /// Gives G the plan cache of F, which F builds now, on the first update
  /// of either side.
  void SharePlanCache() {
    if constexpr (kHasPlanCache) {
      if (plan_cache_shared_) return;
      g_.AdoptPlanCache(f_);
      plan_cache_shared_ = true;
    }
  }

  static std::vector<SynopsisHealth> WithRoles(SynopsisHealth f,
                                               SynopsisHealth g) {
    f.role = "f";
    g.role = "g";
    return {std::move(f), std::move(g)};
  }

  /// Reads one pair record and replaces the synopses with it or, with
  /// `merge`, adds it counter-for-counter.
  Status Restore(std::istream& in, bool merge) {
    std::string tag, version, recorded_kind;
    if (!(in >> tag >> version >> recorded_kind) ||
        tag != "skimjoin.join_pair" || version != "v1") {
      return InvalidArgumentError("not a skimjoin join-pair v1 record");
    }
    if (recorded_kind != Name()) {
      return InvalidArgumentError("join-pair record holds method '" +
                                  recorded_kind + "', expected '" + Name() +
                                  "'");
    }
    SKIMJOIN_ASSIGN_OR_RETURN(Sketch restored_f, Sketch::DeserializeFrom(in));
    SKIMJOIN_ASSIGN_OR_RETURN(Sketch restored_g, Sketch::DeserializeFrom(in));
    // The pair was created from the record's spec + seed, so a shape/seed
    // mismatch means the record belongs to a different query — refuse
    // rather than splice in foreign hash families.
    if (!restored_f.CompatibleWith(f_) || !restored_g.CompatibleWith(g_)) {
      return InvalidArgumentError(
          std::string("join-pair record for '") + Name() +
          "' is incompatible with this pair's configuration");
    }
    if (merge) {
      f_.Merge(restored_f);
      g_.Merge(restored_g);
    } else {
      // The restored sides keep the pair's cache: their families equal
      // the ones its plans came from.
      if constexpr (kHasPlanCache) {
        if (plan_cache_shared_) {
          restored_f.AdoptPlanCache(f_);
          restored_g.AdoptPlanCache(f_);
        }
      }
      f_ = std::move(restored_f);
      g_ = std::move(restored_g);
    }
    return OkStatus();
  }

  Sketch f_;
  Sketch g_;
  // Whether G holds F's plan cache yet; set by the first update.
  bool plan_cache_shared_ = false;
};

/// Builds the SketchPair of `kKind` with both sides from one config and
/// seed, so they share hash families.
template <typename Sketch, EstimatorKind kKind, typename Config>
StatusOr<std::unique_ptr<JoinEstimatorPair>> MakeSketchPair(
    const Config& config, uint64_t seed) {
  SKIMJOIN_ASSIGN_OR_RETURN(Sketch f, Sketch::Create(config, seed));
  SKIMJOIN_ASSIGN_OR_RETURN(Sketch g, Sketch::Create(config, seed));
  return std::unique_ptr<JoinEstimatorPair>(
      new SketchPair<Sketch, kKind>(std::move(f), std::move(g)));
}

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
      sample->Update(value, counts[value]);
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
      return MakeSketchPair<sketch::AgmsSketch, EstimatorKind::kAgms>(config,
                                                                      seed);
    }
    case EstimatorKind::kHashSketch: {
      if (spec.num_tables < 1 || spec.space_counters < spec.num_tables) {
        return InvalidArgumentError(
            "hash-sketch spec needs 1 <= num_tables <= space_counters");
      }
      sketch::HashSketchConfig config;
      config.num_tables = spec.num_tables;
      config.num_buckets = spec.space_counters / spec.num_tables;
      return MakeSketchPair<sketch::HashSketch, EstimatorKind::kHashSketch>(
          config, seed);
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
      return MakeSketchPair<SkimmedSketch, EstimatorKind::kSkimmedSketch>(
          config, seed);
    }
    case EstimatorKind::kCountMin: {
      if (spec.num_tables < 1 || spec.space_counters < spec.num_tables) {
        return InvalidArgumentError(
            "count-min spec needs 1 <= num_tables <= space_counters");
      }
      sketch::CountMinConfig config;
      config.num_tables = spec.num_tables;
      config.num_buckets = spec.space_counters / spec.num_tables;
      return MakeSketchPair<sketch::CountMinSketch, EstimatorKind::kCountMin>(
          config, seed);
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
