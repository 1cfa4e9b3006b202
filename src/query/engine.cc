#include "query/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>
#include <variant>

#include "hashing/simd_hash.h"
#include "util/event_log.h"
#include "util/logging.h"
#include "util/table_printer.h"

namespace skimjoin {
namespace query {
namespace {

// Compact numeric rendering for event-log payloads (events carry string
// fields; %g keeps magnitudes readable without fixed-point noise).
std::string FormatForEvent(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

/// Times one Answer* call: bumps the call counter on entry, records the
/// elapsed nanoseconds on exit. The clock reads stay in even when histogram
/// recording is compiled out — answer paths are cold, and keeping the
/// object unconditional keeps the call sites branch-free.
class ScopedEstimate {
 public:
  ScopedEstimate(metrics::Counter* calls, metrics::ShardedHistogram* nanos)
      : nanos_(nanos), start_(std::chrono::steady_clock::now()) {
    if (calls != nullptr) calls->Increment();
  }
  ~ScopedEstimate() {
    if (nanos_ == nullptr) return;
    nanos_->Record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }

  ScopedEstimate(const ScopedEstimate&) = delete;
  ScopedEstimate& operator=(const ScopedEstimate&) = delete;

 private:
  metrics::ShardedHistogram* nanos_;
  std::chrono::steady_clock::time_point start_;
};

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

/// Sets `*synopsis` to the merge of `records` (DeserializeFrom records
/// CompatibleWith the registered synopsis): the first replaces it, later
/// ones merge in. Families without a Merge take one.
template <typename Synopsis>
Status LoadRecords(std::span<const std::string> records, Synopsis* synopsis) {
  constexpr bool kMergeable = requires(Synopsis& s) { s.Merge(s); };
  if (!kMergeable && records.size() != 1) {
    return InvalidArgumentError(
        "this synopsis family loads exactly one record");
  }
  for (size_t i = 0; i < records.size(); ++i) {
    std::istringstream in(records[i]);
    SKIMJOIN_ASSIGN_OR_RETURN(Synopsis loaded, Synopsis::DeserializeFrom(in));
    if (!loaded.CompatibleWith(*synopsis)) {
      return InvalidArgumentError(
          "synopsis record disagrees with its query spec");
    }
    if constexpr (kMergeable) {
      if (i > 0) {
        synopsis->Merge(loaded);
        continue;
      }
    }
    *synopsis = std::move(loaded);
  }
  return OkStatus();
}

}  // namespace

const char* HealthSeverityName(HealthFinding::Severity severity) {
  switch (severity) {
    case HealthFinding::Severity::kInfo:
      return "info";
    case HealthFinding::Severity::kWarn:
      return "warn";
    case HealthFinding::Severity::kCritical:
      return "critical";
  }
  return "unknown";
}

std::string RenderHealthFindings(const std::vector<HealthFinding>& findings) {
  if (findings.empty()) return "no findings\n";
  std::ostringstream out;
  for (const HealthFinding& finding : findings) {
    out << '[' << HealthSeverityName(finding.severity) << "] "
        << finding.subject;
    if (!finding.shard.empty()) out << "{shard=\"" << finding.shard << "\"}";
    out << ' ' << finding.rule << ": " << finding.message << '\n';
  }
  return out.str();
}

std::string RenderHealthReport(const HealthReport& report) {
  std::ostringstream out;
  TablePrinter streams("stream health",
                      {"stream", "absorbed", "dropped", "skew", "distinct",
                       "delete_ratio", "heavy_mass", "hash_cache_hit"});
  for (const StreamHealth& stream : report.streams) {
    std::string skew = "n/a";
    std::string distinct = "n/a";
    std::string delete_ratio = "n/a";
    std::string heavy_mass = "n/a";
    if (stream.profile.has_value()) {
      if (!std::isnan(stream.profile->skew)) {
        skew = TablePrinter::FormatDouble(stream.profile->skew, 2);
      }
      distinct = TablePrinter::FormatDouble(stream.profile->distinct_estimate, 0);
      delete_ratio = TablePrinter::FormatDouble(stream.profile->delete_ratio, 2);
      heavy_mass =
          TablePrinter::FormatDouble(stream.profile->heavy_mass_fraction, 2);
    }
    streams.AddRow(
        {stream.stream, std::to_string(stream.elements_absorbed),
         std::to_string(stream.elements_dropped), skew, distinct, delete_ratio,
         heavy_mass,
         std::isnan(stream.hash_cache_hit_rate)
             ? "n/a"
             : TablePrinter::FormatDouble(stream.hash_cache_hit_rate, 2)});
  }
  streams.Print(out);

  if (!report.queries.empty()) {
    out << '\n';
    TablePrinter queries("synopsis health",
                         {"query", "method", "streams", "synopsis", "probe"});
    for (const QueryHealth& query : report.queries) {
      for (const SynopsisHealth& health : query.synopses) {
        const std::string synopsis =
            health.role.empty() ? health.kind
                                : health.kind + "." + health.role;
        queries.AddRow({std::to_string(query.id), query.method, query.streams,
                        synopsis, DescribeSynopsisHealth(health)});
      }
    }
    queries.Print(out);
  }

  out << '\n' << RenderHealthFindings(report.findings);
  return out.str();
}

void Engine::InitStreamMetrics(StreamState* state) {
  const std::string prefix = "ingest." + state->spec.name + ".";
  state->absorbed = metrics_.GetCounter(prefix + "elements_absorbed");
  state->batches = metrics_.GetCounter(prefix + "batches");
  state->dropped = metrics_.GetCounter(prefix + "elements_dropped");
  state->merges = metrics_.GetCounter(prefix + "merges");
  state->absorb_nanos = metrics_.GetCounter(prefix + "absorb_nanos");
  state->merge_nanos = metrics_.GetCounter(prefix + "merge_nanos");
  state->hash_cache_hits = metrics_.GetCounter(prefix + "hash_cache_hits");
  state->hash_cache_misses = metrics_.GetCounter(prefix + "hash_cache_misses");
  state->epoch_lag = metrics_.GetGauge(prefix + "epoch_lag");

  metrics_.SetHelp(prefix + "elements_absorbed",
                   "In-domain stream elements fed to this stream's synopses.");
  metrics_.SetHelp(prefix + "batches", "UpdateBatch calls on this stream.");
  metrics_.SetHelp(prefix + "elements_dropped",
                   "Out-of-domain elements dropped before any synopsis.");
  metrics_.SetHelp(prefix + "merges",
                   "Worker-ingestor flushes (IngestOptions.shards > 1 or "
                   "concurrent).");
  metrics_.SetHelp(prefix + "absorb_nanos",
                   "Nanoseconds worker shards spent absorbing batches.");
  metrics_.SetHelp(prefix + "merge_nanos",
                   "Nanoseconds spent merging shard replicas back.");
  metrics_.SetHelp(prefix + "hash_cache_hits",
                   "Hash-plan cache hits across this stream's frequency-query "
                   "synopses (inline path).");
  metrics_.SetHelp(prefix + "hash_cache_misses",
                   "Hash-plan cache misses across this stream's "
                   "frequency-query synopses (inline path).");
  metrics_.SetHelp(prefix + "epoch_lag",
                   "Elements accepted by concurrent-mode UpdateBatch but "
                   "not yet visible to readers; 0 after FlushIngest.");

  const std::string profile = prefix + "profile.";
  metrics_.SetHelp(profile + "observations",
                   "Stream elements seen by the workload profiler.");
  metrics_.SetHelp(profile + "delete_ratio",
                   "Delete mass over total mass observed by the profiler.");
  metrics_.SetHelp(profile + "distinct_estimate",
                   "Profiler HLL estimate of distinct values seen.");
  metrics_.SetHelp(profile + "distinct_rate",
                   "Distinct estimate over observations (1.0 = every element "
                   "new).");
  metrics_.SetHelp(profile + "skew",
                   "Fitted Zipf exponent of the stream's frequency "
                   "distribution (NaN until stable heavy hitters exist).");
  metrics_.SetHelp(profile + "heavy_mass_fraction",
                   "Fraction of insert mass covered by the profiler's "
                   "monitored heavy hitters.");
  metrics_.SetHelp(profile + "net_mass",
                   "Net mass (inserts minus deletes) observed by the "
                   "profiler.");
}

Engine::QueryMetrics Engine::MakeQueryMetrics(QueryId id) {
  const std::string prefix = "query." + std::to_string(id) + ".";
  QueryMetrics metrics;
  metrics.estimate_calls = metrics_.GetCounter(prefix + "estimate_calls");
  metrics.estimate_ns = metrics_.GetHistogram(prefix + "estimate_ns");
  metrics.memory_bytes = metrics_.GetGauge(prefix + "memory_bytes");
  metrics.rel_error = metrics_.GetHistogram(prefix + "rel_error");
  metrics.ci_rel_width = metrics_.GetHistogram(prefix + "ci_rel_width");
  metrics.skim_residual_ratio =
      metrics_.GetHistogram(prefix + "skim_residual_ratio");
  metrics.cache_hits = metrics_.GetCounter(prefix + "cache_hits");
  metrics.cache_misses = metrics_.GetCounter(prefix + "cache_misses");
  metrics.cache_invalidations =
      metrics_.GetCounter(prefix + "cache_invalidations");

  metrics_.SetHelp(prefix + "estimate_calls",
                   "Answer* calls against this query.");
  metrics_.SetHelp(prefix + "estimate_ns",
                   "Nanoseconds per actual estimator execution (cache hits "
                   "excluded).");
  metrics_.SetHelp(prefix + "memory_bytes",
                   "Current synopsis footprint in bytes (refreshed "
                   "pull-style).");
  metrics_.SetHelp(prefix + "rel_error",
                   "Observed relative error against an attached exact "
                   "reference.");
  metrics_.SetHelp(prefix + "ci_rel_width",
                   "Relative width of the empirical CI from *WithReport "
                   "answers.");
  metrics_.SetHelp(prefix + "skim_residual_ratio",
                   "Residual-to-original L2 ratio per stream from skimmed "
                   "join reports.");
  metrics_.SetHelp(prefix + "cache_hits", "Query-cache hits (read path).");
  metrics_.SetHelp(prefix + "cache_misses",
                   "Query-cache misses, including invalidated entries.");
  metrics_.SetHelp(prefix + "cache_invalidations",
                   "Cached answers discarded because a participating "
                   "stream's epoch advanced.");
  metrics_.SetHelp(prefix + "health.occupancy",
                   "Max nonzero-counter fraction across this query's "
                   "synopses (last HealthReport).");
  metrics_.SetHelp(prefix + "health.int32_saturation",
                   "Max p99 |counter| over int32 range across this query's "
                   "synopses (last HealthReport).");
  metrics_.SetHelp(prefix + "health.collision_pressure",
                   "Max estimated distinct values per bucket across this "
                   "query's synopses (last HealthReport).");
  return metrics;
}

template <typename Answer>
const Engine::CachedAnswer<Answer>* Engine::LookupCached(
    const CachedAnswer<Answer>* entry, const Epochs& epochs,
    const QueryMetrics& metrics) {
  if (entry != nullptr && entry->epochs == epochs) {
    metrics.cache_hits->Increment();
    return entry;
  }
  // An invalidated entry still forces a recompute, so it is both an
  // invalidation and a miss — dashboards can read hit rates off
  // hits / (hits + misses) without special-casing.
  if (entry != nullptr) metrics.cache_invalidations->Increment();
  metrics.cache_misses->Increment();
  return nullptr;
}

void Engine::SetReadPathOptions(const ReadPathOptions& options) {
  if (!options.use_query_cache) {
    for (const auto& [id, q] : queries_) q.DropCachedAnswers();
  }
  read_path_ = options;
}

StatusOr<Engine::QueryCacheStats> Engine::QueryCacheStatsFor(
    QueryId query) const {
  const auto it = queries_.find(query);
  if (it == queries_.end() ||
      !(std::holds_alternative<JoinSynopsis>(it->second.synopsis) ||
        std::holds_alternative<FrequencySynopsis>(it->second.synopsis))) {
    return NotFoundError("query " + std::to_string(query) +
                         " has no cached read path (not a join or "
                         "frequency query)");
  }
  const QueryMetrics& metrics = it->second.metrics;
  QueryCacheStats stats;
  stats.enabled = read_path_.use_query_cache;
  stats.hits = metrics.cache_hits->Value();
  stats.misses = metrics.cache_misses->Value();
  stats.invalidations = metrics.cache_invalidations->Value();
  return stats;
}

ingest::IngestStats Engine::IngestStatsFor(const StreamState& state) const {
  ingest::IngestStats stats;
  stats.elements_absorbed = state.absorbed->Value();
  stats.batches = state.batches->Value();
  stats.elements_dropped = state.dropped->Value();
  stats.merges = state.merges->Value();
  stats.absorb_nanos = state.absorb_nanos->Value();
  stats.merge_nanos = state.merge_nanos->Value();
  stats.hash_cache_hits = state.hash_cache_hits->Value();
  stats.hash_cache_misses = state.hash_cache_misses->Value();
  return stats;
}

void Engine::RecordRelError(QueryId query, metrics::ShardedHistogram* histogram,
                            double estimate, double exact) const {
  const double rel_error =
      std::abs(estimate - exact) / std::max(1.0, std::abs(exact));
  if (histogram != nullptr) histogram->Record(rel_error);
  if (rel_error > drift_warn_threshold_) {
    EventLog::Global().Emit(LogLevel::kWarn, "accuracy_drift",
                            {{"query", std::to_string(query)},
                             {"estimate", FormatForEvent(estimate)},
                             {"exact", FormatForEvent(exact)},
                             {"rel_error", FormatForEvent(rel_error)},
                             {"threshold",
                              FormatForEvent(drift_warn_threshold_)}});
  }
}

void Engine::RecordReportMetrics(QueryId query, const QueryMetrics& metrics,
                                 const EstimateReport& report) const {
  const double rel_width = report.CiRelWidth();
  if (metrics.ci_rel_width != nullptr) metrics.ci_rel_width->Record(rel_width);
  if (report.skim.has_value() && metrics.skim_residual_ratio != nullptr) {
    metrics.skim_residual_ratio->Record(report.skim->ResidualRatioF());
    metrics.skim_residual_ratio->Record(report.skim->ResidualRatioG());
  }
  if (rel_width > ci_warn_rel_width_) {
    EventLog::Global().Emit(
        LogLevel::kWarn, "ci_blowup",
        {{"query", std::to_string(query)},
         {"method", report.method},
         {"estimate", FormatForEvent(report.estimate)},
         {"ci_lower", FormatForEvent(report.ci.lower)},
         {"ci_upper", FormatForEvent(report.ci.upper)},
         {"ci_rel_width", FormatForEvent(rel_width)},
         {"threshold", FormatForEvent(ci_warn_rel_width_)}});
  }
}

StatusOr<StreamId> Engine::RegisterStream(const StreamSpec& spec) {
  if (spec.name.empty()) {
    return InvalidArgumentError("stream name must be non-empty");
  }
  if (spec.domain_size < 2) {
    return InvalidArgumentError("stream domain_size must be >= 2");
  }
  if (stream_ids_.contains(spec.name)) {
    return AlreadyExistsError("stream already registered: " + spec.name);
  }
  const StreamId id = streams_.size();
  StreamState state;
  state.spec = spec;
  InitStreamMetrics(&state);
  state.profiler = std::make_unique<util::StreamProfiler>();
  streams_.push_back(std::move(state));
  stream_ids_.emplace(spec.name, id);
  return id;
}

StatusOr<StreamId> Engine::FindStream(const std::string& name) const {
  const auto it = stream_ids_.find(name);
  if (it == stream_ids_.end()) {
    return NotFoundError("unknown stream: " + name);
  }
  return it->second;
}

StatusOr<QueryId> Engine::AddJoinQuery(const JoinQuerySpec& spec,
                                       uint64_t seed) {
  SKIMJOIN_ASSIGN_OR_RETURN(const StreamId left, FindStream(spec.left_stream));
  SKIMJOIN_ASSIGN_OR_RETURN(const StreamId right,
                            FindStream(spec.right_stream));
  const StreamState& left_state = streams_[left];
  const StreamState& right_state = streams_[right];
  if (left_state.spec.domain_size != right_state.spec.domain_size) {
    return InvalidArgumentError(
        "join streams must share a domain: " + spec.left_stream + " vs " +
        spec.right_stream);
  }

  core::EstimatorSpec estimator_spec = spec.estimator;
  estimator_spec.domain_size = left_state.spec.domain_size;
  SKIMJOIN_ASSIGN_OR_RETURN(std::unique_ptr<core::JoinEstimatorPair> pair,
                            core::CreateJoinEstimatorPair(estimator_spec,
                                                          seed));

  return RegisterQuery(spec, seed,
                       {{left, spec.left_predicate, spec.left_input},
                        {right, spec.right_predicate, spec.right_input}},
                       std::move(pair));
}

StatusOr<QueryId> Engine::AddSelfJoinQuery(const SelfJoinQuerySpec& spec,
                                           uint64_t seed) {
  return AddJoinQuery(AsJoinQuerySpec(spec), seed);
}

StatusOr<QueryId> Engine::AddFrequencyQuery(const FrequencyQuerySpec& spec,
                                            uint64_t seed) {
  SKIMJOIN_ASSIGN_OR_RETURN(const StreamId stream, FindStream(spec.stream));
  if (spec.num_tables < 1 || spec.space_counters < spec.num_tables) {
    return InvalidArgumentError(
        "frequency query needs 1 <= num_tables <= space_counters");
  }

  core::SkimmedSketchConfig config;
  config.domain_size = streams_[stream].spec.domain_size;
  config.num_tables = spec.num_tables;
  config.use_dyadic_skim = spec.use_dyadic;
  SKIMJOIN_RETURN_IF_ERROR(
      core::SplitSpaceBudget(spec.space_counters, &config));
  SKIMJOIN_ASSIGN_OR_RETURN(core::SkimmedSketch sketch,
                            core::SkimmedSketch::Create(config, seed));

  return RegisterQuery(spec, seed, {{stream, spec.predicate}},
                       FrequencySynopsis{std::move(sketch)});
}

StatusOr<QueryId> Engine::AddDistinctCountQuery(
    const DistinctCountQuerySpec& spec, uint64_t seed) {
  SKIMJOIN_ASSIGN_OR_RETURN(const StreamId stream, FindStream(spec.stream));
  SKIMJOIN_ASSIGN_OR_RETURN(sketch::FmSketch sketch,
                            sketch::FmSketch::Create(spec.num_maps, seed));
  return RegisterQuery(spec, seed, {{stream, spec.predicate}},
                       std::move(sketch));
}

StatusOr<QueryId> Engine::AddTopKQuery(const TopKQuerySpec& spec,
                                       uint64_t seed) {
  SKIMJOIN_ASSIGN_OR_RETURN(const StreamId stream, FindStream(spec.stream));
  if (spec.num_tables < 1 || spec.space_counters < spec.num_tables) {
    return InvalidArgumentError(
        "top-k query needs 1 <= num_tables <= space_counters");
  }
  sketch::HashSketchConfig config;
  config.num_tables = spec.num_tables;
  config.num_buckets =
      std::max<uint64_t>(1, spec.space_counters / spec.num_tables);
  SKIMJOIN_ASSIGN_OR_RETURN(core::TopKTracker tracker,
                            core::TopKTracker::Create(spec.k, config, seed));
  return RegisterQuery(spec, seed, {{stream, spec.predicate}},
                       std::move(tracker));
}

StatusOr<QueryId> Engine::AddQuantileQuery(const QuantileQuerySpec& spec) {
  SKIMJOIN_ASSIGN_OR_RETURN(const StreamId stream, FindStream(spec.stream));
  SKIMJOIN_ASSIGN_OR_RETURN(stream::GkQuantileSummary summary,
                            stream::GkQuantileSummary::Create(spec.epsilon));
  return RegisterQuery(spec, /*seed=*/0, {{stream, spec.predicate}},
                       std::move(summary));
}

StatusOr<QueryId> Engine::AddRangeSumQuery(const RangeSumQuerySpec& spec) {
  SKIMJOIN_ASSIGN_OR_RETURN(const StreamId stream, FindStream(spec.stream));
  if (spec.coefficient_budget < 1) {
    return InvalidArgumentError("coefficient_budget must be >= 1");
  }
  SKIMJOIN_ASSIGN_OR_RETURN(
      stream::WaveletSynopsis synopsis,
      stream::WaveletSynopsis::Create(streams_[stream].spec.domain_size));
  return RegisterQuery(spec, /*seed=*/0, {{stream, spec.predicate}},
                       std::move(synopsis));
}

StatusOr<StreamId> Engine::RegisterRelation(const RelationSpec& spec) {
  if (spec.name.empty()) {
    return InvalidArgumentError("relation name must be non-empty");
  }
  if (spec.arity < 1 || spec.arity > 2) {
    return InvalidArgumentError(
        "chain-join relations carry 1 (end) or 2 (interior) join attributes");
  }
  if (spec.domain_size < 2) {
    return InvalidArgumentError("relation domain_size must be >= 2");
  }
  if (relation_ids_.contains(spec.name) || stream_ids_.contains(spec.name)) {
    return AlreadyExistsError("name already registered: " + spec.name);
  }
  const StreamId id = relations_.size();
  relations_.push_back(RelationState{spec, 0});
  relation_ids_.emplace(spec.name, id);
  return id;
}

StatusOr<StreamId> Engine::FindRelation(const std::string& name) const {
  const auto it = relation_ids_.find(name);
  if (it == relation_ids_.end()) {
    return NotFoundError("unknown relation: " + name);
  }
  return it->second;
}

StatusOr<QueryId> Engine::AddChainJoinQuery(const ChainJoinQuerySpec& spec,
                                            uint64_t seed) {
  if (spec.relations.size() < 2) {
    return InvalidArgumentError("a chain join needs >= 2 relations");
  }
  for (size_t position = 0; position < spec.relations.size(); ++position) {
    SKIMJOIN_ASSIGN_OR_RETURN(const StreamId id,
                              FindRelation(spec.relations[position]));
    const bool is_end =
        (position == 0 || position + 1 == spec.relations.size());
    const uint64_t expected_arity = is_end ? 1 : 2;
    if (relations_[id].spec.arity != expected_arity) {
      return InvalidArgumentError(
          "relation " + spec.relations[position] + " has arity " +
          std::to_string(relations_[id].spec.arity) + " but chain position " +
          std::to_string(position) + " requires arity " +
          std::to_string(expected_arity));
    }
  }

  std::optional<ChainSynopsis> synopsis;
  if (spec.method == ChainJoinQuerySpec::Method::kAgmsGrid) {
    MultiJoinConfig config;
    config.num_means = spec.num_means;
    config.num_medians = spec.num_medians;
    config.relation_attributes.push_back({0});
    for (size_t r = 1; r + 1 < spec.relations.size(); ++r) {
      config.relation_attributes.push_back({r - 1, r});
    }
    config.relation_attributes.push_back({spec.relations.size() - 2});
    SKIMJOIN_ASSIGN_OR_RETURN(MultiJoinEstimator grid,
                              MultiJoinEstimator::Create(config, seed));
    synopsis.emplace(std::move(grid));
  } else {
    MultiJoinHashConfig config;
    config.num_relations = spec.relations.size();
    config.num_tables = spec.num_tables;
    config.num_buckets = spec.num_buckets;
    SKIMJOIN_ASSIGN_OR_RETURN(MultiJoinHashEstimator hashed,
                              MultiJoinHashEstimator::Create(config, seed));
    synopsis.emplace(std::move(hashed));
  }
  return RegisterQuery(spec, seed, {}, *std::move(synopsis));
}

StatusOr<QueryId> Engine::AddQuery(const QuerySpec& spec, uint64_t seed) {
  return std::visit(
      Overloaded{
          [&](const JoinQuerySpec& s) { return AddJoinQuery(s, seed); },
          [&](const FrequencyQuerySpec& s) {
            return AddFrequencyQuery(s, seed);
          },
          [&](const DistinctCountQuerySpec& s) {
            return AddDistinctCountQuery(s, seed);
          },
          [&](const TopKQuerySpec& s) { return AddTopKQuery(s, seed); },
          [&](const QuantileQuerySpec& s) { return AddQuantileQuery(s); },
          [&](const RangeSumQuerySpec& s) { return AddRangeSumQuery(s); },
          [&](const ChainJoinQuerySpec& s) {
            return AddChainJoinQuery(s, seed);
          }},
      spec);
}

QueryId Engine::RegisterQuery(QuerySpec spec, uint64_t seed,
                              std::vector<QueryInput> inputs,
                              Synopsis synopsis) {
  const QueryId id = next_query_id_++;
  queries_.emplace(id, QueryState{std::move(spec), seed, std::move(inputs),
                                  MakeQueryMetrics(id), std::move(synopsis)});
  return id;
}

Status Engine::UpdateRelation(const std::string& relation,
                              const std::vector<uint64_t>& attributes,
                              int64_t weight) {
  StatusOr<StreamId> id = FindRelation(relation);
  SKIMJOIN_RETURN_IF_ERROR(id.status());
  RelationState& state = relations_[*id];
  if (attributes.size() != state.spec.arity) {
    return InvalidArgumentError(
        "relation " + relation + " expects " +
        std::to_string(state.spec.arity) + " attribute values, got " +
        std::to_string(attributes.size()));
  }
  for (uint64_t value : attributes) {
    if (value >= state.spec.domain_size) {
      return OutOfRangeError("attribute value outside the domain of " +
                             relation);
    }
  }
  state.tuple_count += weight;

  for (auto& [query_id, q] : queries_) {
    auto* chain = std::get_if<ChainSynopsis>(&q.synopsis);
    if (chain == nullptr) continue;
    const std::vector<std::string>& names =
        std::get<ChainJoinQuerySpec>(q.spec).relations;
    for (size_t position = 0; position < names.size(); ++position) {
      if (names[position] != relation) continue;
      const bool is_end = (position == 0 || position + 1 == names.size());
      SKIMJOIN_RETURN_IF_ERROR(std::visit(
          Overloaded{[&](MultiJoinEstimator& grid) {
                       return grid.Update(position, attributes, weight);
                     },
                     [&](MultiJoinHashEstimator& hashed) {
                       return is_end ? hashed.UpdateEnd(position,
                                                        attributes[0], weight)
                                     : hashed.UpdateMiddle(
                                           position, attributes[0],
                                           attributes[1], weight);
                     }},
          *chain));
    }
  }
  return OkStatus();
}

Status Engine::Update(const std::string& stream, const StreamUpdate& update) {
  StatusOr<StreamId> id = FindStream(stream);
  SKIMJOIN_RETURN_IF_ERROR(id.status());
  return Update(*id, update);
}

Status Engine::Update(StreamId stream, const StreamUpdate& update) {
  if (stream >= streams_.size()) {
    return NotFoundError("unknown stream id");
  }
  StreamState& state = streams_[stream];
  if (update.value >= state.spec.domain_size) {
    state.dropped->Increment();
    return OutOfRangeError("value outside the domain of stream " +
                           state.spec.name);
  }
  return FanOut(stream, std::span<const StreamUpdate>(&update, 1));
}

Status Engine::UpdateBatch(const std::string& stream,
                           std::span<const StreamUpdate> updates) {
  StatusOr<StreamId> id = FindStream(stream);
  SKIMJOIN_RETURN_IF_ERROR(id.status());
  return UpdateBatch(*id, updates);
}

Status Engine::UpdateBatch(StreamId stream,
                           std::span<const StreamUpdate> updates) {
  if (stream >= streams_.size()) {
    return NotFoundError("unknown stream id");
  }
  metrics::TraceSpan batch_span("ingest_batch", "ingest");
  streams_[stream].batches->Increment();
  return FanOut(stream, updates);
}

Status Engine::FanOut(StreamId stream, std::span<const StreamUpdate> updates) {
  StreamState& state = streams_[stream];
  const uint64_t domain = state.spec.domain_size;

  // One validation pass, hoisted out of every synopsis loop: bad elements
  // are dropped and counted here so no synopsis ever sees one. Counter
  // deltas accumulate in locals — one atomic add per call, not per
  // element, keeps the instrumented fast path within the 1% overhead
  // budget.
  uint64_t absorbed = 0;
  uint64_t dropped = 0;
  util::StreamProfiler* profiler =
      profiler_enabled_ ? state.profiler.get() : nullptr;
  // The profiler's scalar tallies fold in once per call: the net mass is
  // the element_count delta the loop maintains anyway, and the insert mass
  // is net + deletes — so the per-element profiler cost beyond ObserveValue
  // is one (rarely taken) delete branch.
  const int64_t count_before = state.element_count;
  uint64_t profiled_deletes = 0;
  for (const StreamUpdate& update : updates) {
    if (update.value >= domain) {
      ++dropped;
      continue;
    }
    state.element_count += update.count;
    ++absorbed;
    if (profiler != nullptr) {
      profiler->ObserveValue(update.value, update.count);
      if (update.count < 0) {
        profiled_deletes += static_cast<uint64_t>(-update.count);
      }
    }
  }
  if (dropped != 0) state.dropped->Increment(dropped);
  if (absorbed == 0) return OkStatus();
  state.absorbed->Increment(absorbed);
  if (profiler != nullptr) {
    const int64_t profiled_net = state.element_count - count_before;
    profiler->AddTallies(
        absorbed,
        static_cast<uint64_t>(profiled_net +
                              static_cast<int64_t>(profiled_deletes)),
        profiled_deletes, profiled_net);
  }

  // Query by query, each input that reads `stream` takes its own
  // projection of the batch in arrival order. Synopses are independent,
  // so the visiting order across queries (and across a self-join's two
  // sides) cannot change any counter. A failure stops no other input.
  Status status = OkStatus();
  for (auto& [id, q] : queries_) {
    for (size_t side = 0; side < q.inputs.size(); ++side) {
      const QueryInput& input = q.inputs[side];
      if (input.stream != stream) continue;
      Status fed = Feed(
          q, side, Project(updates, domain, input.predicate, input.input));
      if (status.ok()) status = std::move(fed);
    }
  }
  return status;
}

Status Engine::Feed(QueryState& q, size_t side,
                    std::span<const stream::StreamElement> elements) {
  return std::visit(
      Overloaded{
          [&](JoinSynopsis& join) {
            // Join sides take scalar updates in arrival order.
            for (const stream::StreamElement& e : elements) {
              if (side == 0) {
                join->UpdateF(e);
              } else {
                join->UpdateG(e);
              }
            }
            return OkStatus();
          },
          [&](FrequencySynopsis& f) {
            return FeedFrequencyQuery(f, q.inputs[side].stream, elements);
          },
          [&](stream::GkQuantileSummary& summary) {
            // GK summaries are insert-only; deletes are documented as
            // ignored.
            for (const stream::StreamElement& e : elements) {
              for (int64_t i = 0; i < e.weight; ++i) summary.Insert(e.value);
            }
            return OkStatus();
          },
          [&](stream::WaveletSynopsis& synopsis) {
            const uint64_t budget =
                std::get<RangeSumQuerySpec>(q.spec).coefficient_budget;
            for (const stream::StreamElement& e : elements) {
              synopsis.Update(e.value, e.weight);
              // Keep the synopsis a B-term summary (with slack so
              // compression is amortized, not per-update).
              if (synopsis.CoefficientCount() > 2 * budget) {
                synopsis.CompressTo(budget);
              }
            }
            return OkStatus();
          },
          // A chain join reads relations (UpdateRelation), never a stream.
          [](ChainSynopsis&) { return OkStatus(); },
          [&](auto& synopsis) {  // distinct count, top-k
            for (const stream::StreamElement& e : elements) {
              synopsis.Update(e);
            }
            return OkStatus();
          }},
      q.synopsis);
}

std::span<const stream::StreamElement> Engine::Project(
    std::span<const StreamUpdate> updates, uint64_t domain_size,
    const std::optional<RangePredicate>& predicate, AggregateInput input) {
  projection_.clear();
  for (const StreamUpdate& update : updates) {
    if (update.value >= domain_size) continue;
    if (predicate && !predicate->Matches(update.value)) continue;
    const int64_t weight = WeightFor(input, update);
    if (weight != 0) projection_.push_back({update.value, weight});
  }
  return projection_;
}

Status Engine::FeedFrequencyQuery(
    FrequencySynopsis& f, StreamId stream,
    std::span<const stream::StreamElement> elements) {
  if (elements.empty()) return OkStatus();
  if (elements.size() == 1) {
    // One element is cheapest as a scalar update: the batch kernel's and a
    // worker hand-off's set-up costs are per call. A live worker ingestor
    // may be propagating into this sketch right now, so join its writer
    // lock instead of racing it. The plan-cache tallies reach the stream
    // counters through RefreshMetricsGauges' pull.
    ingest::ConcurrentIngestor<core::SkimmedSketch>::WriteLock lock;
    if (f.concurrent != nullptr) lock = f.concurrent->WriterLock();
    f.sketch.Update(elements[0]);
    return OkStatus();
  }
  if (ingest_options_.shards == 1 && !ingest_options_.concurrent) {
    f.sketch.UpdateBatch(elements);
    PublishHashCacheDeltas(stream, f);
    return OkStatus();
  }
  // Worker path: hand chunks to the persistent workers. Concurrent mode
  // returns without waiting — staleness is bounded by the ingestor's
  // propagation policy and FlushIngest() is the linearization point.
  // Synchronous sharding flushes before returning, so reads stay exact.
  if (f.concurrent == nullptr) {
    ingest::ConcurrentIngestOptions options;
    options.num_workers = ingest_options_.shards;
    options.propagation_interval_elements =
        ingest_options_.propagation_interval_elements;
    options.max_lag_elements = ingest_options_.max_lag_elements;
    SKIMJOIN_ASSIGN_OR_RETURN(
        f.concurrent, ingest::ConcurrentIngestor<core::SkimmedSketch>::Create(
                          &f.sketch, options));
  }
  f.concurrent->AbsorbBatch(elements);
  if (ingest_options_.concurrent) {
    streams_[stream].epoch_lag->Set(
        static_cast<double>(f.concurrent->epoch_lag()));
  } else {
    FlushFrequencyIngest(f, stream);
  }
  return OkStatus();
}

Status Engine::SetIngestOptions(const IngestOptions& options) {
  if (options.shards < 1) {
    return InvalidArgumentError("ingest shard count must be >= 1");
  }
  if (options.propagation_interval_elements < 1) {
    return InvalidArgumentError("propagation interval must be >= 1");
  }
  // Existing ingestors were built under the old configuration; linearize
  // them out so no accepted element is lost, then let the next batch
  // rebuild under the new knobs.
  FlushIngest();
  for (auto& [id, q] : queries_) {
    if (auto* f = std::get_if<FrequencySynopsis>(&q.synopsis)) {
      f->concurrent.reset();
    }
  }
  ingest_options_ = options;
  return OkStatus();
}

void Engine::FlushIngest() {
  for (auto& [id, q] : queries_) {
    auto* f = std::get_if<FrequencySynopsis>(&q.synopsis);
    if (f != nullptr && f->concurrent != nullptr) {
      FlushFrequencyIngest(*f, q.inputs[0].stream);
    }
  }
}

void Engine::FlushFrequencyIngest(FrequencySynopsis& f, StreamId stream) {
  const ingest::IngestStats before = f.concurrent->stats();
  f.concurrent->Flush();
  const ingest::IngestStats& after = f.concurrent->stats();
  StreamState& state = streams_[stream];
  state.merges->Increment();
  state.absorb_nanos->Increment(after.absorb_nanos - before.absorb_nanos);
  state.merge_nanos->Increment(after.merge_nanos - before.merge_nanos);
  state.epoch_lag->Set(0.0);
}

StatusOr<ingest::IngestStats> Engine::StreamIngestStats(
    const std::string& stream) const {
  StatusOr<StreamId> id = FindStream(stream);
  SKIMJOIN_RETURN_IF_ERROR(id.status());
  return IngestStatsFor(streams_[*id]);
}

Status Engine::AttachAccuracyReference(
    const std::string& stream, const stream::FrequencyVector* reference) {
  StatusOr<StreamId> id = FindStream(stream);
  SKIMJOIN_RETURN_IF_ERROR(id.status());
  // FrequencyVector::Get aborts on out-of-domain indices, so a reference
  // narrower than the stream would turn a valid point query into a crash.
  if (reference != nullptr &&
      reference->domain_size() != streams_[*id].spec.domain_size) {
    return InvalidArgumentError(
        "accuracy reference domain (" +
        std::to_string(reference->domain_size()) +
        ") does not match the domain of stream " + stream + " (" +
        std::to_string(streams_[*id].spec.domain_size) + ")");
  }
  streams_[*id].reference = reference;
  return OkStatus();
}

void Engine::MaybeRecordJoinDrift(QueryId query, const QueryState& q,
                                  double estimate) const {
  // The reference holds raw frequencies: only an unfiltered COUNT join has
  // an exact counterpart to compare against.
  for (const QueryInput& input : q.inputs) {
    if (streams_[input.stream].reference == nullptr ||
        input.predicate.has_value() || input.input != AggregateInput::kCount) {
      return;
    }
  }
  const stream::FrequencyVector* left = streams_[q.inputs[0].stream].reference;
  const stream::FrequencyVector* right = streams_[q.inputs[1].stream].reference;
  if (left->domain_size() != right->domain_size()) return;
  RecordRelError(query, q.metrics.rel_error, estimate,
                 static_cast<double>(stream::JoinSize(*left, *right)));
}

StatusOr<double> Engine::AnswerJoin(QueryId query) const {
  const auto [q, join] = FindQuery<JoinSynopsis>(query);
  if (join == nullptr) return NotFoundError("unknown join query id");
  // Self-joins read one stream twice; the duplicate slot is harmless (both
  // move together) and keeps the shape uniform.
  const Epochs epochs = {streams_[q->inputs[0].stream].absorbed->Value(),
                         streams_[q->inputs[1].stream].absorbed->Value()};
  if (read_path_.use_query_cache) {
    if (const CachedAnswer<double>* hit = LookupCached(
            q->cached_join ? &*q->cached_join : nullptr, epochs, q->metrics)) {
      // Hit path stays O(lookup): count the call but take no trace span
      // and no latency sample — estimate_ns measures actual estimator
      // executions. The answer is bit-identical to a recompute (the
      // estimator is deterministic and no participating stream advanced),
      // so the drift record stays meaningful too.
      q->metrics.estimate_calls->Increment();
      MaybeRecordJoinDrift(query, *q, hit->answer);
      return hit->answer;
    }
  }
  metrics::TraceSpan span("estimate", "query");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  StatusOr<double> estimate = (*join)->Estimate();
  if (estimate.ok()) {
    if (read_path_.use_query_cache) {
      q->cached_join = CachedAnswer<double>{epochs, *estimate};
    }
    MaybeRecordJoinDrift(query, *q, *estimate);
  }
  return estimate;
}

StatusOr<EstimateReport> Engine::AnswerJoinWithReport(QueryId query) const {
  const auto [q, join] = FindQuery<JoinSynopsis>(query);
  if (join == nullptr) return NotFoundError("unknown join query id");
  metrics::TraceSpan span("estimate", "query");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  // The report carries the synopses' probes as of this estimate (a skimmed
  // pair reads them from the estimate's own skims); the estimate is still
  // bit-identical to AnswerJoin.
  StatusOr<EstimateReport> report = (*join)->EstimateWithReport();
  if (report.ok()) {
    MaybeRecordJoinDrift(query, *q, report->estimate);
    RecordReportMetrics(query, q->metrics, *report);
  }
  return report;
}

StatusOr<int64_t> Engine::AnswerPointFrequency(QueryId query,
                                               uint64_t value) const {
  const auto [q, f] = FindQuery<FrequencySynopsis>(query);
  if (f == nullptr) return NotFoundError("unknown frequency query id");
  const StreamState& state = streams_[q->inputs[0].stream];
  if (value >= state.spec.domain_size) {
    return OutOfRangeError("value outside the domain of stream " +
                           state.spec.name);
  }
  const bool exact_reference =
      state.reference != nullptr && !q->inputs[0].predicate.has_value();
  // Under concurrent ingestion: a whole-epoch (bounded-staleness) snapshot
  // of the sketch, taken without blocking in-flight absorbs. The cache
  // guard is read under the same lock, so a propagation or FlushIngest
  // that moves the sketch invalidates what was cached before it.
  const FrequencyReadLock read_lock = ReadLockFor(*f);
  const Epochs epochs = {f->sketch.update_epoch(), 0};
  if (read_path_.use_query_cache) {
    const auto it = q->cached_points.find(value);
    if (const CachedAnswer<int64_t>* hit = LookupCached(
            it == q->cached_points.end() ? nullptr : &it->second, epochs,
            q->metrics)) {
      // Hit path stays O(lookup): count the call but take no trace span
      // and no latency sample — estimate_ns measures actual estimator
      // executions.
      q->metrics.estimate_calls->Increment();
      if (exact_reference) {
        RecordRelError(query, q->metrics.rel_error,
                       static_cast<double>(hit->answer),
                       static_cast<double>(state.reference->Get(value)));
      }
      return hit->answer;
    }
  }
  metrics::TraceSpan span("estimate", "query");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  const int64_t estimate = f->sketch.EstimatePointFrequency(value);
  if (read_path_.use_query_cache) {
    q->cached_points[value] = CachedAnswer<int64_t>{epochs, estimate};
  }
  if (exact_reference) {
    RecordRelError(query, q->metrics.rel_error, static_cast<double>(estimate),
                   static_cast<double>(state.reference->Get(value)));
  }
  return estimate;
}

StatusOr<core::DenseFrequencies> Engine::AnswerHeavyHitters(
    QueryId query, int64_t threshold) const {
  const auto [q, f] = FindQuery<FrequencySynopsis>(query);
  if (f == nullptr) return NotFoundError("unknown frequency query id");
  if (threshold < 1) {
    return InvalidArgumentError("heavy-hitter threshold must be >= 1");
  }
  metrics::TraceSpan span("estimate", "query");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  const FrequencyReadLock read_lock = ReadLockFor(*f);
  return f->sketch.HeavyHitters(threshold);
}

StatusOr<double> Engine::AnswerDistinctCount(QueryId query) const {
  const auto [q, fm] = FindQuery<sketch::FmSketch>(query);
  if (fm == nullptr) return NotFoundError("unknown distinct-count query id");
  metrics::TraceSpan span("estimate", "query");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  const double estimate = fm->EstimateDistinctCount();
  const StreamState& state = streams_[q->inputs[0].stream];
  if (state.reference != nullptr && !q->inputs[0].predicate.has_value()) {
    RecordRelError(query, q->metrics.rel_error, estimate,
                   static_cast<double>(state.reference->SupportSize()));
  }
  return estimate;
}

StatusOr<std::vector<std::pair<uint64_t, int64_t>>> Engine::AnswerTopK(
    QueryId query) const {
  const auto [q, tracker] = FindQuery<core::TopKTracker>(query);
  if (tracker == nullptr) return NotFoundError("unknown top-k query id");
  metrics::TraceSpan span("estimate", "query");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  return tracker->TopK();
}

StatusOr<uint64_t> Engine::AnswerQuantile(QueryId query, double phi) const {
  const auto [q, summary] = FindQuery<stream::GkQuantileSummary>(query);
  if (summary == nullptr) return NotFoundError("unknown quantile query id");
  metrics::TraceSpan span("estimate", "query");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  return summary->Quantile(phi);
}

StatusOr<double> Engine::AnswerRangeSum(QueryId query, uint64_t lo,
                                        uint64_t hi) const {
  const auto [q, synopsis] = FindQuery<stream::WaveletSynopsis>(query);
  if (synopsis == nullptr) return NotFoundError("unknown range-sum query id");
  metrics::TraceSpan span("estimate", "query");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  return synopsis->RangeSum(lo, hi);
}

StatusOr<double> Engine::AnswerChainJoin(QueryId query) const {
  const auto [q, chain] = FindQuery<ChainSynopsis>(query);
  if (chain == nullptr) return NotFoundError("unknown chain-join query id");
  metrics::TraceSpan span("estimate", "query");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  return std::visit([](const auto& e) { return e.Estimate(); }, *chain);
}

StatusOr<EstimateReport> Engine::AnswerChainJoinWithReport(
    QueryId query) const {
  const auto [q, chain] = FindQuery<ChainSynopsis>(query);
  if (chain == nullptr) return NotFoundError("unknown chain-join query id");
  metrics::TraceSpan span("estimate", "query");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  EstimateReport report = std::visit(
      [](const auto& e) { return e.EstimateWithReport(); }, *chain);
  RecordReportMetrics(query, q->metrics, report);
  return report;
}

Status Engine::SerializeQuerySynopsis(QueryId query, std::string* out) const {
  // Serialized synopses feed distributed delta pulls and must be exact;
  // linearize any in-flight concurrent ingestion first. Writer-thread only
  // (like every engine read), so the const_cast mutates nothing reentrant.
  const_cast<Engine*>(this)->FlushIngest();
  const auto it = queries_.find(query);
  if (it == queries_.end()) {
    return NotFoundError("unknown query id " + std::to_string(query));
  }
  std::ostringstream record;
  SKIMJOIN_RETURN_IF_ERROR(std::visit(
      Overloaded{[&](const JoinSynopsis& join) {
                   return join->SerializeTo(record);
                 },
                 [&](const FrequencySynopsis& f) {
                   return f.sketch.SerializeTo(record);
                 },
                 [&](const ChainSynopsis& chain) {
                   return std::visit(
                       [&](const auto& e) { return e.SerializeTo(record); },
                       chain);
                 },
                 [&](const auto& synopsis) {
                   return synopsis.SerializeTo(record);
                 }},
      it->second.synopsis));
  *out = std::move(record).str();
  return OkStatus();
}

Status Engine::LoadQuerySynopsis(QueryId query,
                                 std::span<const std::string> records) {
  if (records.empty()) {
    return InvalidArgumentError("a synopsis load needs at least one record");
  }
  const auto it = queries_.find(query);
  if (it == queries_.end()) {
    return NotFoundError("unknown query id " + std::to_string(query));
  }
  // A load moves no stream epoch and can repeat a sketch epoch, so an
  // answer cached before it could still pass its guard.
  it->second.DropCachedAnswers();
  return std::visit(
      Overloaded{
          [&](JoinSynopsis& join) -> Status {
            for (size_t i = 0; i < records.size(); ++i) {
              std::istringstream in(records[i]);
              SKIMJOIN_RETURN_IF_ERROR(i == 0 ? join->RestoreFrom(in)
                                              : join->MergeFrom(in));
            }
            return OkStatus();
          },
          [&](FrequencySynopsis& f) {
            // Quiesce a live ingestor (its destructor flushes and joins
            // the workers) before replacing the sketch it feeds. The loaded
            // sketch's cache tallies start from zero; restart the
            // bookkeeping with them.
            f.concurrent.reset();
            f.cache_hits_seen = 0;
            f.cache_misses_seen = 0;
            return LoadRecords(records, &f.sketch);
          },
          [&](ChainSynopsis& chain) {
            return std::visit(
                [&](auto& e) { return LoadRecords(records, &e); }, chain);
          },
          [&](auto& synopsis) { return LoadRecords(records, &synopsis); }},
      it->second.synopsis);
}

StatusOr<int64_t> Engine::StreamElementCount(const std::string& stream) const {
  StatusOr<StreamId> id = FindStream(stream);
  SKIMJOIN_RETURN_IF_ERROR(id.status());
  return streams_[*id].element_count;
}

std::vector<std::string> Engine::StreamNames() const {
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const StreamState& state : streams_) names.push_back(state.spec.name);
  return names;
}

void Engine::PublishHashCacheDeltas(StreamId stream,
                                    const FrequencySynopsis& f) const {
  if (stream >= streams_.size()) return;
  const StreamState& state = streams_[stream];
  const uint64_t hits = f.sketch.hash_cache_hits();
  const uint64_t misses = f.sketch.hash_cache_misses();
  if (hits > f.cache_hits_seen) {
    state.hash_cache_hits->Increment(hits - f.cache_hits_seen);
  }
  if (misses > f.cache_misses_seen) {
    state.hash_cache_misses->Increment(misses - f.cache_misses_seen);
  }
  f.cache_hits_seen = hits;
  f.cache_misses_seen = misses;
}

void Engine::RefreshMetricsGauges() const {
  // Gauges are refreshed pull-style: footprints change on every update, so
  // pushing them from the hot path would cost more than anyone reading
  // them. Runs on the writer thread only — it walks the query table.
  for (const auto& [id, q] : queries_) {
    const uint64_t bytes = std::visit(
        Overloaded{[](const JoinSynopsis& join) { return join->MemoryBytes(); },
                   [&](const FrequencySynopsis& f) {
                     // One-element projections bump the sketch-side tallies
                     // without the batch kernel's per-call export; pull the
                     // deltas here so snapshots stay current for
                     // scalar-only sessions.
                     PublishHashCacheDeltas(q.inputs[0].stream, f);
                     return f.sketch.MemoryBytes();
                   },
                   [](const ChainSynopsis& chain) {
                     return std::visit(
                         [](const auto& e) { return e.MemoryBytes(); }, chain);
                   },
                   [](const auto& synopsis) { return synopsis.MemoryBytes(); }},
        q.synopsis);
    q.metrics.memory_bytes->Set(static_cast<double>(bytes));
  }
  for (const StreamState& state : streams_) {
    if (state.profiler == nullptr) continue;
    const util::StreamProfiler::Snapshot profile =
        state.profiler->TakeSnapshot();
    const std::string prefix = "ingest." + state.spec.name + ".profile.";
    metrics_.GetGauge(prefix + "observations")
        ->Set(static_cast<double>(profile.observations));
    metrics_.GetGauge(prefix + "delete_ratio")->Set(profile.delete_ratio);
    metrics_.GetGauge(prefix + "distinct_estimate")
        ->Set(profile.distinct_estimate);
    metrics_.GetGauge(prefix + "distinct_rate")->Set(profile.distinct_rate);
    if (!std::isnan(profile.skew)) {
      metrics_.GetGauge(prefix + "skew")->Set(profile.skew);
    }
    metrics_.GetGauge(prefix + "heavy_mass_fraction")
        ->Set(profile.heavy_mass_fraction);
    metrics_.GetGauge(prefix + "net_mass")
        ->Set(static_cast<double>(profile.net_mass));
  }
  metrics_.SetHelp("engine.num_streams", "Registered streams.");
  metrics_.SetHelp("engine.num_queries", "Registered standing queries.");
  metrics_.SetHelp("engine.ingest_shards",
                   "Worker threads UpdateBatch may fan a batch out to.");
  metrics_.SetHelp("engine.ingest_concurrent",
                   "1 while relaxed-consistency concurrent ingestion is on.");
  metrics_.SetHelp("engine.simd_level",
                   "SIMD dispatch the sketch kernels selected on this "
                   "machine: 0 scalar, 1 AVX2, 2 AVX-512.");
  metrics_.GetGauge("engine.num_streams")
      ->Set(static_cast<double>(num_streams()));
  metrics_.GetGauge("engine.num_queries")
      ->Set(static_cast<double>(num_queries()));
  metrics_.GetGauge("engine.ingest_shards")
      ->Set(static_cast<double>(ingest_options_.shards));
  metrics_.GetGauge("engine.ingest_concurrent")
      ->Set(ingest_options_.concurrent ? 1.0 : 0.0);
  metrics_.GetGauge("engine.simd_level")
      ->Set(static_cast<double>(hashing::DetectSimdLevel()));
}

StatusOr<util::StreamProfiler::Snapshot> Engine::StreamProfile(
    const std::string& stream) const {
  StatusOr<StreamId> id = FindStream(stream);
  SKIMJOIN_RETURN_IF_ERROR(id.status());
  return streams_[*id].profiler->TakeSnapshot();
}

HealthReport Engine::HealthReport() const {
  // Probes copy synopses; linearize concurrent ingestion first so the
  // report describes a state every future answer will agree with
  // (writer-thread only, see SerializeQuerySynopsis).
  const_cast<Engine*>(this)->FlushIngest();
  query::HealthReport report;

  for (const StreamState& state : streams_) {
    StreamHealth health;
    health.stream = state.spec.name;
    health.elements_absorbed = state.absorbed->Value();
    health.elements_dropped = state.dropped->Value();
    const uint64_t hits = state.hash_cache_hits->Value();
    const uint64_t misses = state.hash_cache_misses->Value();
    health.hash_cache_hit_rate =
        hits + misses == 0
            ? std::numeric_limits<double>::quiet_NaN()
            : static_cast<double>(hits) / static_cast<double>(hits + misses);
    if (state.profiler != nullptr) {
      health.profile = state.profiler->TakeSnapshot();
    }
    report.streams.push_back(std::move(health));
  }

  for (const auto& [id, q] : queries_) {
    QueryHealth health;
    health.id = id;
    if (const auto* join = std::get_if<JoinSynopsis>(&q.synopsis)) {
      health.kind = "join";
      health.method = (*join)->Name();
      health.streams = streams_[q.inputs[0].stream].spec.name + "⋈" +
                       streams_[q.inputs[1].stream].spec.name;
      health.synopses = (*join)->HealthProbe();
    } else if (const auto* f = std::get_if<FrequencySynopsis>(&q.synopsis)) {
      health.kind = "frequency";
      health.method = "skimmed";
      health.streams = streams_[q.inputs[0].stream].spec.name;
      health.synopses.push_back(f->sketch.HealthProbe());
      if (std::optional<SynopsisHealth> dyadic =
              f->sketch.DyadicHealthProbe()) {
        health.synopses.push_back(*std::move(dyadic));
      }
    }
    // Other kinds, and join methods without probe support (e.g. sampling),
    // have no probes and contribute nothing to the health picture.
    if (!health.synopses.empty()) report.queries.push_back(std::move(health));
  }

  // Publish the per-query health gauges (max across the query's synopses)
  // so scrapes between HealthReport calls still see the last probe.
  for (const QueryHealth& query : report.queries) {
    const std::string prefix =
        "query." + std::to_string(query.id) + ".health.";
    double occupancy = 0.0, saturation = 0.0, pressure = 0.0;
    bool any_pressure = false;
    for (const SynopsisHealth& health : query.synopses) {
      occupancy = std::max(occupancy, health.occupancy);
      saturation = std::max(saturation, health.int32_saturation);
      if (!std::isnan(health.collision_pressure)) {
        pressure = std::max(pressure, health.collision_pressure);
        any_pressure = true;
      }
    }
    metrics_.GetGauge(prefix + "occupancy")->Set(occupancy);
    metrics_.GetGauge(prefix + "int32_saturation")->Set(saturation);
    if (any_pressure) {
      metrics_.GetGauge(prefix + "collision_pressure")->Set(pressure);
    }
  }

  // Rule pass. Stream-level rules first, then per-synopsis rules, so the
  // findings list reads workload -> synopsis.
  for (const StreamHealth& stream : report.streams) {
    const std::string subject = "stream " + stream.stream;
    if (stream.profile.has_value() && !std::isnan(stream.profile->skew) &&
        stream.profile->skew >= 1.2 &&
        !std::isnan(stream.hash_cache_hit_rate) &&
        stream.hash_cache_hit_rate < 0.5) {
      report.findings.push_back(
          {HealthFinding::Severity::kInfo, subject, "skew-cache-mismatch",
           "stream skew " + TablePrinter::FormatDouble(stream.profile->skew, 2) +
               " but hit rate " +
               TablePrinter::FormatDouble(stream.hash_cache_hit_rate, 2) +
               " on the fixed " + std::to_string(sketch::kPlanCacheSlots) +
               "-slot hash-plan cache",
           ""});
    }
    if (stream.profile.has_value() && stream.profile->delete_ratio > 0.25) {
      report.findings.push_back(
          {HealthFinding::Severity::kInfo, subject, "delete-heavy",
           "delete ratio " +
               TablePrinter::FormatDouble(stream.profile->delete_ratio, 2) +
               " — insert-only synopses (quantiles) undercover this stream",
           ""});
    }
    if (stream.elements_dropped > 0) {
      report.findings.push_back(
          {HealthFinding::Severity::kInfo, subject, "domain-drops",
           std::to_string(stream.elements_dropped) +
               " elements dropped outside the registered domain",
           ""});
    }
  }
  for (const QueryHealth& query : report.queries) {
    const std::string subject = "query " + std::to_string(query.id);
    for (const SynopsisHealth& health : query.synopses) {
      const std::string synopsis =
          health.role.empty() ? health.kind : health.kind + "." + health.role;
      if (health.int64_saturation >= 0.5) {
        report.findings.push_back(
            {HealthFinding::Severity::kCritical, subject, "counter-saturation",
             synopsis + " max |counter| at " +
                 TablePrinter::FormatDouble(100.0 * health.int64_saturation,
                                            1) +
                 "% of int64 — counters are about to overflow",
             ""});
      } else if (health.int32_saturation >= 0.5) {
        report.findings.push_back(
            {HealthFinding::Severity::kWarn, subject, "counter-saturation",
             synopsis + " counter p99 at " +
                 TablePrinter::FormatDouble(100.0 * health.int32_saturation,
                                            1) +
                 "% of int32 — an early warning of heavy weights; counters "
                 "are int64",
             ""});
      }
      if ((!std::isnan(health.collision_pressure) &&
           health.collision_pressure >= 4.0) ||
          health.occupancy >= 0.95) {
        std::string message = synopsis + " occupancy " +
                              TablePrinter::FormatDouble(health.occupancy, 2);
        if (!std::isnan(health.collision_pressure)) {
          message += ", ~" +
                     TablePrinter::FormatDouble(health.collision_pressure, 1) +
                     " values/bucket";
        }
        message += " over " + query.streams +
                   " — the sketch is undersized for this stream";
        report.findings.push_back({HealthFinding::Severity::kWarn, subject,
                                   "collision-pressure", std::move(message),
                                   ""});
      }
      if (!std::isnan(health.residual_ratio) &&
          !std::isnan(health.residual_ratio_at_estimate) &&
          std::fabs(health.residual_ratio -
                    health.residual_ratio_at_estimate) > 0.25) {
        report.findings.push_back(
            {HealthFinding::Severity::kWarn, subject, "skim-drift",
             synopsis + " residual ratio " +
                 TablePrinter::FormatDouble(health.residual_ratio, 2) +
                 " vs " +
                 TablePrinter::FormatDouble(health.residual_ratio_at_estimate,
                                            2) +
                 " at the last estimate — the dense-value picture has gone "
                 "stale; re-answer with a report to refresh",
             ""});
      }
    }
  }
  return report;
}

metrics::Snapshot Engine::MetricsSnapshot() const {
  RefreshMetricsGauges();
  return metrics_.TakeSnapshot();
}

void Engine::Clear() {
  streams_.clear();
  stream_ids_.clear();
  relations_.clear();
  relation_ids_.clear();
  // Cached answers go with their queries: a future same-id query never
  // sees an old life's answer.
  queries_.clear();
  next_query_id_ = 1;
  ingest_options_ = IngestOptions{};
  // Last: every cached instrument pointer above is gone, so dropping the
  // instruments themselves is safe.
  metrics_.Clear();
}

}  // namespace query
}  // namespace skimjoin
