#include "core/skimmed_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "sketch/serial_limits.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/stats.h"

namespace skimjoin {
namespace core {

namespace {

bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

// Shared by Create and DeserializeFrom: a deserialized header is untrusted
// input and must pass the same validation as a caller-supplied config.
Status ValidateConfig(const SkimmedSketchConfig& config) {
  if (config.domain_size < 2) {
    return InvalidArgumentError("SkimmedSketchConfig.domain_size must be >= 2");
  }
  if (config.use_dyadic_skim && !IsPowerOfTwo(config.domain_size)) {
    return InvalidArgumentError(
        "dyadic skimming requires a power-of-two domain size");
  }
  if (config.num_tables < 1 || config.num_buckets < 1) {
    return InvalidArgumentError(
        "SkimmedSketchConfig requires num_tables >= 1 and num_buckets >= 1");
  }
  if (!(std::isfinite(config.threshold_scale) &&
        config.threshold_scale > 0.0)) {
    return InvalidArgumentError(
        "SkimmedSketchConfig.threshold_scale must be positive and finite");
  }
  if (config.min_threshold < 1) {
    return InvalidArgumentError(
        "SkimmedSketchConfig.min_threshold must be >= 1");
  }
  if (!(config.recurse_slack > 0.0 && config.recurse_slack <= 1.0)) {
    return InvalidArgumentError(
        "SkimmedSketchConfig.recurse_slack must be in (0, 1]");
  }
  if (!(config.skim_margin >= 0.0 && config.skim_margin < 1.0)) {
    return InvalidArgumentError(
        "SkimmedSketchConfig.skim_margin must be in [0, 1)");
  }
  return OkStatus();
}

}  // namespace

Status SplitSpaceBudget(uint64_t space_counters,
                        SkimmedSketchConfig* config) {
  if (config->domain_size < 2 || config->num_tables < 1) {
    return InvalidArgumentError(
        "splitting a space budget needs domain_size >= 2 and num_tables >= 1");
  }
  if (!config->use_dyadic_skim) {
    config->num_buckets =
        std::max<uint64_t>(1, space_counters / config->num_tables);
    return OkStatus();
  }
  // ceil(log2(domain_size)) auxiliary levels.
  const uint64_t levels = std::bit_width(config->domain_size - 1);
  config->num_buckets =
      std::max<uint64_t>(1, space_counters / (2 * config->num_tables));
  config->dyadic_num_buckets = std::max<uint64_t>(
      1, space_counters / (2 * config->num_tables * levels));
  return OkStatus();
}

SkimmedSketch::SkimmedSketch(const SkimmedSketchConfig& config, uint64_t seed,
                             sketch::HashSketch level0,
                             std::optional<DyadicSkimmer> dyadic)
    : config_(config),
      seed_(seed),
      level0_(std::move(level0)),
      dyadic_(std::move(dyadic)) {}

StatusOr<SkimmedSketch> SkimmedSketch::Create(const SkimmedSketchConfig& config,
                                              uint64_t seed) {
  SKIMJOIN_RETURN_IF_ERROR(ValidateConfig(config));

  sketch::HashSketchConfig level0_config;
  level0_config.num_tables = config.num_tables;
  level0_config.num_buckets = config.num_buckets;
  StatusOr<sketch::HashSketch> level0 =
      sketch::HashSketch::Create(level0_config, seed);
  SKIMJOIN_RETURN_IF_ERROR(level0.status());

  std::optional<DyadicSkimmer> dyadic;
  if (config.use_dyadic_skim) {
    sketch::HashSketchConfig upper_config;
    upper_config.num_tables = config.num_tables;
    upper_config.num_buckets = config.dyadic_num_buckets == 0
                                   ? config.num_buckets
                                   : config.dyadic_num_buckets;
    StatusOr<DyadicSkimmer> skimmer =
        DyadicSkimmer::Create(config.domain_size, upper_config, seed);
    SKIMJOIN_RETURN_IF_ERROR(skimmer.status());
    dyadic = *std::move(skimmer);
  }
  return SkimmedSketch(config, seed, *std::move(level0), std::move(dyadic));
}

void SkimmedSketch::Update(uint64_t value, int64_t weight) {
  if (value >= config_.domain_size) {
    // Not an internal invariant: the value came off a stream. Drop it and
    // keep serving the in-domain sub-stream instead of aborting.
    ++dropped_updates_;
    return;
  }
  level0_.Update(value, weight);
  if (dyadic_.has_value()) dyadic_->Update(value, weight);
}

void SkimmedSketch::UpdateBatch(
    std::span<const stream::StreamElement> elements) {
  bool clean = true;
  for (const stream::StreamElement& element : elements) {
    if (element.value >= config_.domain_size) {
      clean = false;
      break;
    }
  }
  if (!clean) {
    // Slow path: compact the in-domain elements so the batch kernels below
    // never see a bad value. thread_local scratch: no allocation per batch
    // once warm, one copy per ingest worker thread.
    static thread_local std::vector<stream::StreamElement> kept;
    kept.clear();
    kept.reserve(elements.size());
    for (const stream::StreamElement& element : elements) {
      if (element.value < config_.domain_size) {
        kept.push_back(element);
      } else {
        ++dropped_updates_;
      }
    }
    level0_.UpdateBatch(kept);
    if (dyadic_.has_value()) dyadic_->UpdateBatch(kept);
    return;
  }
  level0_.UpdateBatch(elements);
  if (dyadic_.has_value()) dyadic_->UpdateBatch(elements);
}

void SkimmedSketch::SetKernel(sketch::Kernel kernel) {
  level0_.SetKernel(kernel);
  if (dyadic_.has_value()) dyadic_->SetKernel(kernel);
}

uint64_t SkimmedSketch::hash_cache_hits() const {
  uint64_t total = level0_.hash_cache_hits();
  if (dyadic_.has_value()) total += dyadic_->hash_cache_hits();
  return total;
}

uint64_t SkimmedSketch::hash_cache_misses() const {
  uint64_t total = level0_.hash_cache_misses();
  if (dyadic_.has_value()) total += dyadic_->hash_cache_misses();
  return total;
}

void SkimmedSketch::Reset() {
  level0_.Reset();
  if (dyadic_.has_value()) dyadic_->Reset();
  dropped_updates_ = 0;
}

void SkimmedSketch::Absorb(const stream::FrequencyVector& frequencies) {
  const auto& counts = frequencies.counts();
  SKIMJOIN_CHECK_LE(counts.size(), config_.domain_size);
  for (uint64_t value = 0; value < counts.size(); ++value) {
    if (counts[value] != 0) Update(value, counts[value]);
  }
}

void SkimmedSketch::Merge(const SkimmedSketch& other) {
  SKIMJOIN_CHECK(CompatibleWith(other))
      << "merging incompatible skimmed sketches";
  level0_.Merge(other.level0_);
  if (dyadic_.has_value()) dyadic_->Merge(*other.dyadic_);
}

bool SkimmedSketch::CompatibleWith(const SkimmedSketch& other) const {
  return seed_ == other.seed_ &&
         config_.domain_size == other.config_.domain_size &&
         config_.num_tables == other.config_.num_tables &&
         config_.num_buckets == other.config_.num_buckets &&
         config_.use_dyadic_skim == other.config_.use_dyadic_skim &&
         config_.dyadic_num_buckets == other.config_.dyadic_num_buckets;
}

int64_t SkimmedSketch::SkimThreshold() const {
  const double f2 = std::max(level0_.EstimateSelfJoinSize(), 0.0);
  const double scale =
      config_.threshold_scale *
      std::sqrt(f2 / static_cast<double>(config_.num_buckets));
  const auto threshold = static_cast<int64_t>(std::ceil(scale));
  return std::max(threshold, config_.min_threshold);
}

SkimmedSketch::SkimOutput SkimmedSketch::Skim() const {
  metrics::TraceSpan span("skimdense", "estimate");
  const int64_t threshold = SkimThreshold();
  const auto margin = static_cast<int64_t>(
      config_.skim_margin * static_cast<double>(threshold));
  sketch::HashSketch residual = level0_;
  DenseFrequencies dense;
  if (dyadic_.has_value()) {
    const std::vector<uint64_t> candidates =
        dyadic_->FindCandidates(threshold, config_.recurse_slack);
    dense = SkimDenseCandidates(&residual, candidates, threshold, margin);
  } else {
    dense = SkimDenseNaive(&residual, config_.domain_size, threshold, margin);
  }
  return SkimOutput{std::move(dense), std::move(residual), threshold};
}

JoinEstimateBreakdown SkimmedSketch::BreakdownFromSkims(
    const SkimOutput& skim_f, const SkimOutput& skim_g,
    SubJoinTables* tables) {
  JoinEstimateBreakdown breakdown;
  breakdown.threshold_f = skim_f.threshold;
  breakdown.threshold_g = skim_g.threshold;
  breakdown.dense_count_f = skim_f.dense.size();
  breakdown.dense_count_g = skim_g.dense.size();

  // Step 2: dense·dense, computed exactly from the explicit vectors.
  breakdown.dense_dense = DenseDenseJoin(skim_f.dense, skim_g.dense);

  // Dense frequencies of one stream against the residual sketch of the
  // other (ESTSUBJOINSIZE, both directions). The skimmed copies are
  // compatible by construction, so the bucket-product estimator applies
  // directly; each estimated sub-join medians its per-table vector exactly
  // as the dedicated entry points do.
  std::vector<double> dense_sparse =
      EstimateSubJoinSizePerTable(skim_f.dense, skim_g.skimmed);
  std::vector<double> sparse_dense =
      EstimateSubJoinSizePerTable(skim_g.dense, skim_f.skimmed);
  std::vector<double> sparse_sparse =
      sketch::HashSketch::PerTableJoinProducts(skim_f.skimmed, skim_g.skimmed);
  breakdown.dense_sparse = Median(dense_sparse);
  breakdown.sparse_dense = Median(sparse_dense);
  breakdown.sparse_sparse = Median(sparse_sparse);
  if (tables != nullptr) {
    tables->dense_sparse = std::move(dense_sparse);
    tables->sparse_dense = std::move(sparse_dense);
    tables->sparse_sparse = std::move(sparse_sparse);
  }
  return breakdown;
}

StatusOr<double> SkimmedSketch::EstimateJoinSizeFromSkims(
    const SkimOutput& skim_f, const SkimOutput& skim_g) {
  if (!skim_f.skimmed.CompatibleWith(skim_g.skimmed)) {
    return InvalidArgumentError(
        "skimmed-join estimation from precomputed skims requires residual "
        "sketches with equal configuration and seed");
  }
  return BreakdownFromSkims(skim_f, skim_g, nullptr).Total();
}

StatusOr<JoinEstimateBreakdown> SkimmedSketch::EstimateDetailedImpl(
    const SkimmedSketch& f, const SkimmedSketch& g, EstimateReport* report) {
  if (!f.CompatibleWith(g)) {
    return InvalidArgumentError(
        "skimmed-sketch join estimation requires sketches with equal "
        "configuration and seed");
  }
  SkimOutput skim_f = f.Skim();
  SkimOutput skim_g = g.Skim();

  SubJoinTables sub_joins;
  JoinEstimateBreakdown breakdown =
      BreakdownFromSkims(skim_f, skim_g, &sub_joins);
  const std::vector<double>& dense_sparse = sub_joins.dense_sparse;
  const std::vector<double>& sparse_dense = sub_joins.sparse_dense;
  const std::vector<double>& sparse_sparse = sub_joins.sparse_sparse;

  if (report != nullptr) {
    report->method = "skimmed";
    // Copy j: the join estimate table j alone would have produced —
    // the exact dense·dense part plus table j's share of each estimated
    // sub-join. Note the point answer medians each sub-join separately, so
    // it need not equal the median of these copies; FinishReportFromCopies
    // widens the CI to contain it.
    const size_t tables = dense_sparse.size();
    report->copy_estimates.reserve(tables);
    for (size_t j = 0; j < tables; ++j) {
      report->copy_estimates.push_back(breakdown.dense_dense +
                                       dense_sparse[j] + sparse_dense[j] +
                                       sparse_sparse[j]);
    }

    SkimDiagnostics diag;
    diag.threshold_f = breakdown.threshold_f;
    diag.threshold_g = breakdown.threshold_g;
    diag.dense_count_f = breakdown.dense_count_f;
    diag.dense_count_g = breakdown.dense_count_g;
    diag.residual_l2_before_f =
        std::sqrt(std::max(f.level0_.EstimateSelfJoinSize(), 0.0));
    diag.residual_l2_after_f =
        std::sqrt(std::max(skim_f.skimmed.EstimateSelfJoinSize(), 0.0));
    diag.residual_l2_before_g =
        std::sqrt(std::max(g.level0_.EstimateSelfJoinSize(), 0.0));
    diag.residual_l2_after_g =
        std::sqrt(std::max(skim_g.skimmed.EstimateSelfJoinSize(), 0.0));
    diag.dense_dense = breakdown.dense_dense;
    diag.dense_sparse = breakdown.dense_sparse;
    diag.sparse_dense = breakdown.sparse_dense;
    diag.sparse_sparse = breakdown.sparse_sparse;
    report->skim = diag;

    // Record each side's skim shape so HealthProbe can report drift since
    // this estimate. Only the reporting path pays the bookkeeping; the
    // estimate itself is untouched.
    f.dense_fraction_at_estimate_ =
        static_cast<double>(breakdown.dense_count_f) /
        static_cast<double>(f.config_.domain_size);
    g.dense_fraction_at_estimate_ =
        static_cast<double>(breakdown.dense_count_g) /
        static_cast<double>(g.config_.domain_size);
    f.residual_ratio_at_estimate_ =
        diag.residual_l2_before_f > 0.0
            ? diag.residual_l2_after_f / diag.residual_l2_before_f
            : std::numeric_limits<double>::quiet_NaN();
    g.residual_ratio_at_estimate_ =
        diag.residual_l2_before_g > 0.0
            ? diag.residual_l2_after_g / diag.residual_l2_before_g
            : std::numeric_limits<double>::quiet_NaN();

    // §3.2 decomposition: the dense·dense part is exact, so the error
    // envelope is the sum of the three estimated sub-joins' terms, each an
    // ε·sqrt(self-join product) with ε = 4/sqrt(b) and the appropriate
    // dense/residual norms. Dense F2s are exact sums over Ê; residual F2s
    // are the skimmed sketches' own estimates (already computed above as
    // L2 norms).
    double f2_dense_f = 0.0;
    for (const auto& [value, frequency] : skim_f.dense) {
      f2_dense_f +=
          static_cast<double>(frequency) * static_cast<double>(frequency);
    }
    double f2_dense_g = 0.0;
    for (const auto& [value, frequency] : skim_g.dense) {
      f2_dense_g +=
          static_cast<double>(frequency) * static_cast<double>(frequency);
    }
    const double res_f = diag.residual_l2_after_f;   // sqrt(F2 of residual F)
    const double res_g = diag.residual_l2_after_g;
    const double eps = 4.0 / std::sqrt(static_cast<double>(
                                 f.config_.num_buckets));
    report->apriori_bound = eps * (std::sqrt(f2_dense_f) * res_g +
                                   res_f * std::sqrt(f2_dense_g) +
                                   res_f * res_g);
  }
  return breakdown;
}

StatusOr<JoinEstimateBreakdown> SkimmedSketch::EstimateJoinSizeDetailed(
    const SkimmedSketch& f, const SkimmedSketch& g) {
  return EstimateDetailedImpl(f, g, nullptr);
}

StatusOr<EstimateReport> SkimmedSketch::EstimateJoinSizeWithReport(
    const SkimmedSketch& f, const SkimmedSketch& g) {
  EstimateReport report;
  StatusOr<JoinEstimateBreakdown> breakdown =
      EstimateDetailedImpl(f, g, &report);
  SKIMJOIN_RETURN_IF_ERROR(breakdown.status());
  report.estimate = breakdown->Total();
  FinishReportFromCopies(&report);
  return report;
}

StatusOr<double> SkimmedSketch::EstimateJoinSize(const SkimmedSketch& f,
                                                 const SkimmedSketch& g) {
  StatusOr<JoinEstimateBreakdown> breakdown = EstimateJoinSizeDetailed(f, g);
  SKIMJOIN_RETURN_IF_ERROR(breakdown.status());
  return breakdown->Total();
}

double SkimmedSketch::EstimateSelfJoinSize() const {
  StatusOr<double> result = EstimateJoinSize(*this, *this);
  SKIMJOIN_CHECK(result.ok());
  return *result;
}

EstimateReport SkimmedSketch::EstimateSelfJoinSizeWithReport() const {
  StatusOr<EstimateReport> report = EstimateJoinSizeWithReport(*this, *this);
  SKIMJOIN_CHECK(report.ok());
  report->method = "skimmed-selfjoin";
  return *std::move(report);
}

SynopsisHealth SkimmedSketch::HealthProbe() const {
  SynopsisHealth health = HealthProbeAtEstimate();
  const SkimOutput skim = Skim();
  health.dense_fraction = static_cast<double>(skim.dense.size()) /
                          static_cast<double>(config_.domain_size);
  const double before =
      std::sqrt(std::max(level0_.EstimateSelfJoinSize(), 0.0));
  const double after =
      std::sqrt(std::max(skim.skimmed.EstimateSelfJoinSize(), 0.0));
  health.residual_ratio = before > 0.0
                              ? after / before
                              : std::numeric_limits<double>::quiet_NaN();
  return health;
}

SynopsisHealth SkimmedSketch::HealthProbeAtEstimate() const {
  SynopsisHealth health = level0_.HealthProbe();
  health.kind = "skimmed";
  health.dense_fraction = dense_fraction_at_estimate_;
  health.residual_ratio = residual_ratio_at_estimate_;
  health.dense_fraction_at_estimate = dense_fraction_at_estimate_;
  health.residual_ratio_at_estimate = residual_ratio_at_estimate_;
  return health;
}

std::optional<SynopsisHealth> SkimmedSketch::DyadicHealthProbe() const {
  if (!dyadic_.has_value()) return std::nullopt;
  return dyadic_->HealthProbe();
}

DenseFrequencies SkimmedSketch::HeavyHitters(int64_t threshold) const {
  SKIMJOIN_CHECK_GE(threshold, 1);
  sketch::HashSketch scratch = level0_;
  if (dyadic_.has_value()) {
    const std::vector<uint64_t> candidates =
        dyadic_->FindCandidates(threshold, config_.recurse_slack);
    return SkimDenseCandidates(&scratch, candidates, threshold);
  }
  return SkimDenseNaive(&scratch, config_.domain_size, threshold);
}

StatusOr<int64_t> SkimmedSketch::EstimateRangeFrequency(uint64_t lo,
                                                        uint64_t hi) const {
  if (!dyadic_.has_value()) {
    return FailedPreconditionError(
        "range estimation requires use_dyadic_skim (the dyadic levels ARE "
        "the range index)");
  }
  if (lo > hi) {
    return InvalidArgumentError("range lower bound exceeds upper bound");
  }
  if (hi >= config_.domain_size) {
    return OutOfRangeError("range extends past the stream domain");
  }
  const uint64_t max_level = dyadic_->num_levels();
  int64_t total = 0;
  uint64_t cursor = lo;
  while (cursor <= hi) {
    // Largest dyadic block aligned at `cursor` that stays inside [lo, hi].
    uint64_t level = 0;
    while (level < max_level) {
      const uint64_t doubled = uint64_t{1} << (level + 1);
      if (cursor % doubled != 0) break;
      if (cursor + doubled - 1 > hi) break;
      ++level;
    }
    total += (level == 0)
                 ? level0_.PointEstimate(cursor)
                 : dyadic_->PointEstimate(level, cursor >> level);
    cursor += uint64_t{1} << level;
    if (cursor == 0) break;  // wrapped past the 64-bit domain edge
  }
  return total;
}

StatusOr<uint64_t> SkimmedSketch::EstimateQuantile(double phi) const {
  if (!dyadic_.has_value()) {
    return FailedPreconditionError(
        "quantile estimation requires use_dyadic_skim");
  }
  SKIMJOIN_CHECK(phi > 0.0 && phi <= 1.0) << "phi must be in (0, 1]";
  const uint64_t top = dyadic_->num_levels();
  const double n = std::max<double>(
      0.0, static_cast<double>(dyadic_->PointEstimate(top, 0)));
  if (n <= 0.0) {
    return FailedPreconditionError(
        "quantiles are undefined on an empty (or delete-dominated) stream");
  }
  const double target = phi * n;
  double mass_before = 0.0;
  uint64_t prefix = 0;
  // Binary descent: at each level inspect the left child's estimated mass.
  for (uint64_t level = top; level >= 1; --level) {
    const uint64_t left_child = prefix * 2;
    const int64_t raw =
        (level == 1) ? level0_.PointEstimate(left_child)
                     : dyadic_->PointEstimate(level - 1, left_child);
    const double left_mass = std::max<double>(0.0, static_cast<double>(raw));
    if (mass_before + left_mass >= target) {
      prefix = left_child;
    } else {
      mass_before += left_mass;
      prefix = left_child + 1;
    }
  }
  return prefix;
}

Status SkimmedSketch::SerializeTo(std::ostream& out) const {
  const auto saved_precision = out.precision(17);
  out << "skimjoin.skimmed_sketch v2\n"
      << config_.domain_size << ' ' << config_.num_tables << ' '
      << config_.num_buckets << ' ' << (config_.use_dyadic_skim ? 1 : 0) << ' '
      << config_.dyadic_num_buckets << ' ' << config_.threshold_scale << ' '
      << config_.min_threshold << ' ' << config_.recurse_slack << ' '
      << config_.skim_margin << ' ' << seed_ << '\n';
  out.precision(saved_precision);
  SKIMJOIN_RETURN_IF_ERROR(level0_.SerializeTo(out));
  if (dyadic_.has_value()) {
    SKIMJOIN_RETURN_IF_ERROR(dyadic_->SerializeTo(out));
  }
  if (!out) return IoError("skimmed-sketch serialization failed");
  return OkStatus();
}

StatusOr<SkimmedSketch> SkimmedSketch::DeserializeFrom(std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "skimjoin.skimmed_sketch" ||
      version != "v2") {
    return InvalidArgumentError("not a skimjoin skimmed-sketch v2 record");
  }
  SkimmedSketchConfig config;
  int use_dyadic = 0;
  uint64_t seed = 0;
  if (!(in >> config.domain_size >> config.num_tables >> config.num_buckets >>
        use_dyadic >> config.dyadic_num_buckets >> config.threshold_scale >>
        config.min_threshold >> config.recurse_slack >> config.skim_margin >>
        seed)) {
    return InvalidArgumentError("malformed skimmed-sketch header");
  }
  config.use_dyadic_skim = (use_dyadic != 0);
  // The header is untrusted: run the full Create-level validation plus the
  // deserialization size cap before touching the nested records.
  SKIMJOIN_RETURN_IF_ERROR(ValidateConfig(config));
  SKIMJOIN_RETURN_IF_ERROR(sketch::CheckDeserializeDims(
      config.num_tables, config.num_buckets, "skimmed-sketch level 0"));

  StatusOr<sketch::HashSketch> level0 =
      sketch::HashSketch::DeserializeFrom(in);
  SKIMJOIN_RETURN_IF_ERROR(level0.status());
  if (level0->config().num_tables != config.num_tables ||
      level0->config().num_buckets != config.num_buckets ||
      level0->seed() != seed) {
    return InvalidArgumentError(
        "skimmed-sketch level-0 record disagrees with its header");
  }
  std::optional<DyadicSkimmer> dyadic;
  if (config.use_dyadic_skim) {
    StatusOr<DyadicSkimmer> skimmer = DyadicSkimmer::DeserializeFrom(in);
    SKIMJOIN_RETURN_IF_ERROR(skimmer.status());
    if (skimmer->domain_size() != config.domain_size) {
      return InvalidArgumentError(
          "skimmed-sketch dyadic record disagrees with its header");
    }
    dyadic = *std::move(skimmer);
  }
  return SkimmedSketch(config, seed, *std::move(level0), std::move(dyadic));
}

uint64_t SkimmedSketch::TotalCounters() const {
  uint64_t total = level0_.config().TotalCounters();
  if (dyadic_.has_value()) total += dyadic_->TotalCounters();
  return total;
}

uint64_t SkimmedSketch::MemoryBytes() const {
  uint64_t total = sizeof(*this) +
                   (level0_.MemoryBytes() - sizeof(sketch::HashSketch));
  if (dyadic_.has_value()) {
    total += dyadic_->MemoryBytes() - sizeof(DyadicSkimmer);
  }
  return total;
}

}  // namespace core
}  // namespace skimjoin
