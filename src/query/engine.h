// The stream query-processing engine of Fig. 1: registered streams, a set
// of standing approximate queries, and single-pass synopsis maintenance.
//
// Usage:
//   Engine engine;
//   auto f = engine.RegisterStream({"packets.src", 1u << 16});
//   auto q = engine.AddJoinQuery({.left_stream = "packets.src", ...});
//   engine.Update("packets.src", {.value = 443, .count = 1});
//   auto size = engine.AnswerJoin(*q);
//
// Every registered query owns its own synopses; an arriving element fans
// out to every synopsis subscribed to its stream (after per-query selection
// predicates). Synopses see each element exactly once, in arrival order —
// the single-pass constraint of §2.1. Update and UpdateBatch share one
// fan-out: validate the batch once, then feed each subscribed query side
// its projection of the batch (Update is a one-element batch).

#ifndef SKIMJOIN_QUERY_ENGINE_H_
#define SKIMJOIN_QUERY_ENGINE_H_

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "core/join_estimators.h"
#include "core/skimmed_sketch.h"
#include "core/top_k.h"
#include "ingest/concurrent_ingestor.h"
#include "ingest/ingest_stats.h"
#include "query/checkpoint.h"
#include "query/multi_join.h"
#include "query/multi_join_hash.h"
#include "query/query.h"
#include "sketch/fm_sketch.h"
#include "stream/frequency_vector.h"
#include "stream/gk_quantiles.h"
#include "stream/stream_element.h"
#include "stream/wavelet.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/stream_profiler.h"

namespace skimjoin {
namespace query {

/// One rule-based finding from Engine::HealthReport(): something an
/// operator should act on, with the subject it concerns and the rule that
/// fired. The shell's `doctor` command and the fleet health report render
/// lists of these.
struct HealthFinding {
  enum class Severity { kInfo, kWarn, kCritical };
  Severity severity = Severity::kInfo;
  /// What the finding concerns: "stream <name>" or "query <id>".
  std::string subject;
  /// Stable rule identifier, e.g. "counter-saturation",
  /// "collision-pressure", "skew-cache-mismatch", "skim-drift",
  /// "delete-heavy", "domain-drops".
  std::string rule;
  /// Human-readable explanation carrying the numbers that fired the rule.
  std::string message;
  /// Shard index (as text) when the finding was aggregated by the fleet
  /// health report; empty for a local engine's own findings.
  std::string shard;
};

/// "info" / "warn" / "critical".
const char* HealthSeverityName(HealthFinding::Severity severity);

/// One stream's workload health: the live profiler snapshot plus
/// ingest-derived rates read off the stream's registry counters.
struct StreamHealth {
  std::string stream;
  std::optional<util::StreamProfiler::Snapshot> profile;
  /// hits / (hits + misses) of the stream's hash-plan caches; NaN before
  /// any batch has exercised them.
  double hash_cache_hit_rate = 0.0;
  uint64_t elements_absorbed = 0;
  uint64_t elements_dropped = 0;
};

/// One query's synopsis health: the probes of every synopsis it owns.
struct QueryHealth {
  QueryId id = 0;
  /// "join" or "frequency" (the probe-capable query kinds).
  std::string kind;
  /// Estimation method ("skimmed", "agms", ...).
  std::string method;
  /// The participating stream name(s), e.g. "f⋈g" or "f".
  std::string streams;
  std::vector<SynopsisHealth> synopses;
};

/// The full engine health picture: every stream's workload profile, every
/// probe-capable query's synopsis probes, and the rule-based findings
/// derived from both. Built by Engine::HealthReport().
struct HealthReport {
  std::vector<StreamHealth> streams;
  std::vector<QueryHealth> queries;
  std::vector<HealthFinding> findings;
};

/// Renders the full report — stream table, per-query probe rows, findings —
/// as aligned text (the shell's `health` command).
std::string RenderHealthReport(const HealthReport& report);

/// Renders just the findings, one `[severity] subject rule: message` line
/// each, with `{shard="k"}` labels when present (the `doctor` command and
/// the fleet health artifact). "no findings" when the list is empty.
std::string RenderHealthFindings(const std::vector<HealthFinding>& findings);

/// One stream arrival as seen by the engine: the join-attribute value, the
/// count delta (+1 insert / -1 delete), and an optional measure value for
/// SUM aggregates.
struct StreamUpdate {
  uint64_t value = 0;
  int64_t count = 1;
  int64_t measure = 0;
};

/// The engine. Single-writer: ONE thread drives registration and ingestion
/// (Update / UpdateBatch) at a time. UpdateBatch may internally hand a
/// frequency query's batch to ingest worker threads (more than one
/// IngestOptions shard, see SetIngestOptions) and, by default, waits for
/// them and merges before returning — externally the engine remains a
/// single-writer structure, per the single-pass stream model and
/// DESIGN.md's "Threading & ingestion model". With IngestOptions.concurrent
/// on (DESIGN.md §13) UpdateBatch returns without waiting; registration and
/// ingestion stay single-writer, while point-frequency and heavy-hitter
/// ANSWERS may run on the writer thread concurrently with in-flight
/// ingestion and observe bounded-staleness snapshots until FlushIngest().
class Engine {
 public:
  Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a stream. ALREADY_EXISTS if the name is taken;
  /// INVALID_ARGUMENT for an empty name or domain < 2.
  StatusOr<StreamId> RegisterStream(const StreamSpec& spec);

  /// Registers AGG(left ⋈ right). Both streams must already be registered
  /// with equal domains (NOT_FOUND / INVALID_ARGUMENT otherwise). All query
  /// randomness derives from `seed`.
  StatusOr<QueryId> AddJoinQuery(const JoinQuerySpec& spec, uint64_t seed);

  /// Registers AGG(stream ⋈ stream).
  StatusOr<QueryId> AddSelfJoinQuery(const SelfJoinQuerySpec& spec,
                                     uint64_t seed);

  /// Registers point-frequency / heavy-hitter tracking over one stream.
  StatusOr<QueryId> AddFrequencyQuery(const FrequencyQuerySpec& spec,
                                      uint64_t seed);

  /// Registers a COUNT DISTINCT query over one stream (Flajolet–Martin
  /// synopsis with `num_maps` bit maps).
  StatusOr<QueryId> AddDistinctCountQuery(const DistinctCountQuerySpec& spec,
                                          uint64_t seed);

  /// Registers a continuous top-k frequent-values query over one stream.
  StatusOr<QueryId> AddTopKQuery(const TopKQuerySpec& spec, uint64_t seed);

  /// Registers a deterministic quantile query (GK summary; insert-only —
  /// deletes on the stream are ignored by this query).
  StatusOr<QueryId> AddQuantileQuery(const QuantileQuerySpec& spec);

  /// Registers wavelet-backed range-sum tracking over one stream. The
  /// stream's domain must be a power of two.
  StatusOr<QueryId> AddRangeSumQuery(const RangeSumQuerySpec& spec);

  /// Registers a multi-attribute relation stream for chain-join queries.
  /// ALREADY_EXISTS if the name collides with a stream or relation.
  StatusOr<StreamId> RegisterRelation(const RelationSpec& spec);

  /// Registers COUNT over a chain of >= 2 registered relations. End
  /// relations must have arity 1 and interior relations arity 2.
  StatusOr<QueryId> AddChainJoinQuery(const ChainJoinQuerySpec& spec,
                                      uint64_t seed);

  /// Registers any query from its spec: the one dispatch over the seven
  /// Add*Query methods that checkpoint restore and fleet workers use.
  /// Quantile and range-sum queries take no seed and ignore `seed`.
  StatusOr<QueryId> AddQuery(const QuerySpec& spec, uint64_t seed);

  /// Feeds one tuple into a registered relation: `attributes` carries its
  /// join-attribute values in schema order. NOT_FOUND / INVALID_ARGUMENT /
  /// OUT_OF_RANGE for unknown relations, arity mismatches, or out-of-domain
  /// values.
  Status UpdateRelation(const std::string& relation,
                        const std::vector<uint64_t>& attributes,
                        int64_t weight);

  /// Feeds one element into every subscribed synopsis: the fan-out
  /// UpdateBatch runs, on a one-element batch that counts no batch.
  /// NOT_FOUND for an unknown stream; OUT_OF_RANGE if update.value is
  /// outside the stream's domain (the element is dropped and counted, never
  /// fed to a synopsis).
  Status Update(const std::string& stream, const StreamUpdate& update);
  Status Update(StreamId stream, const StreamUpdate& update);

  /// Feeds a whole batch of elements — the ingest fast path. Stream lookup
  /// and domain validation run once per batch; out-of-domain elements are
  /// dropped and counted in the stream's ingest stats (the rest of the
  /// batch is still absorbed, and the call stays OK). Then each subscribed
  /// query side takes the batch's projection through its predicate and
  /// AggregateInput weight. Join, distinct, top-k, quantile and range-sum
  /// synopses take it element by element; frequency synopses take it
  /// through SkimmedSketch::UpdateBatch, or the worker ingestor under
  /// IngestOptions — a one-element projection through
  /// SkimmedSketch::Update. Every synopsis ends identical to element-by-
  /// element Update. NOT_FOUND for an unknown stream.
  Status UpdateBatch(const std::string& stream,
                     std::span<const StreamUpdate> updates);
  Status UpdateBatch(StreamId stream, std::span<const StreamUpdate> updates);

  /// Full ingestion-concurrency configuration (DESIGN.md §13).
  struct IngestOptions {
    /// ConcurrentIngestor workers per frequency-query synopsis; 1 without
    /// `concurrent` means inline ingest. With `concurrent` off and more
    /// than one shard, UpdateBatch flushes the ingestor before returning,
    /// so every answer stays exact.
    uint64_t shards = 1;
    /// Relaxed-consistency concurrent ingestion: UpdateBatch hands chunks
    /// to persistent workers and returns WITHOUT waiting; workers fold
    /// into private replicas and propagate into the query synopsis on
    /// epoch boundaries. Point-frequency / heavy-hitter answers then read
    /// a bounded-staleness (but always internally consistent) snapshot
    /// until FlushIngest() linearizes. Exactness everywhere else is
    /// preserved: serialization, checkpoints, and health reports flush
    /// first.
    bool concurrent = false;
    /// Propagation cadence and hard staleness bound, forwarded to
    /// ingest::ConcurrentIngestOptions (they only shape staleness, so they
    /// matter only when `concurrent` is on).
    uint64_t propagation_interval_elements = 1 << 16;
    uint64_t max_lag_elements = 1 << 20;
  };

  /// Reconfigures ingestion. Flushes and drops existing worker ingestors
  /// first, so switching modes never loses elements. Change one knob by
  /// copying ingest_options() and editing it.
  /// INVALID_ARGUMENT for shards == 0 or a zero propagation interval.
  Status SetIngestOptions(const IngestOptions& options);

  const IngestOptions& ingest_options() const { return ingest_options_; }

  /// Linearization point for concurrent ingestion: blocks until every
  /// element accepted by UpdateBatch is folded into its query synopsis.
  /// Afterwards answers are exact (identical to sequential ingestion) and
  /// every `ingest.<stream>.epoch_lag` gauge reads 0. Nothing is ever
  /// pending unless concurrent mode is on.
  void FlushIngest();

  /// The read path (DESIGN.md §11). The cache answers bit-identically to
  /// a recomputation and defaults OFF, so existing embedders see no
  /// behavior change until they opt in.
  struct ReadPathOptions {
    /// Epoch-invalidated answer cache over AnswerJoin /
    /// AnswerPointFrequency, kept in each query's own entry: a join answer
    /// is recomputed only when a participating stream's absorbed-element
    /// epoch advanced, a point answer only when its synopsis's update
    /// epoch did.
    bool use_query_cache = false;
  };

  /// Selects the read path. Turning the cache off drops every cached
  /// entry, so toggling is always safe.
  void SetReadPathOptions(const ReadPathOptions& options);

  const ReadPathOptions& read_path_options() const { return read_path_; }

  /// Cache observability for one join or frequency query, mirroring its
  /// `query.<id>.cache_*` counters (docs/OBSERVABILITY.md).
  struct QueryCacheStats {
    bool enabled = false;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
  };

  /// NOT_FOUND when `query` is not a join/self-join or frequency query
  /// (other query kinds have no cached read path).
  StatusOr<QueryCacheStats> QueryCacheStatsFor(QueryId query) const;

  /// Ingestion observability for one stream: elements absorbed and
  /// dropped, batches, and time spent in parallel absorb/merge. Assembled
  /// from the engine's registry counters (`ingest.<stream>.*`).
  StatusOr<ingest::IngestStats> StreamIngestStats(
      const std::string& stream) const;

  /// The engine's private metrics registry. Every stream owns
  /// `ingest.<name>.*` counters and every query `query.<id>.*` instruments
  /// (see docs/OBSERVABILITY.md for the full naming scheme). Exposed so
  /// embedders (shell, CLI) can register their own instruments beside the
  /// engine's; those ride along in MetricsSnapshot and checkpoints.
  /// Registry::TakeSnapshot is the one engine read that IS safe from a
  /// background thread (exporters) while the writer thread mutates the
  /// engine — instruments are atomics behind the registry's own mutex.
  metrics::Registry& metrics_registry() const { return metrics_; }

  /// Refreshes the per-query `query.<id>.memory_bytes` gauges and the
  /// engine-level gauges (`engine.num_streams`, `engine.num_queries`,
  /// `engine.ingest_shards`) by walking every query's synopsis. Like all
  /// engine reads this must run on the single writer thread — it iterates
  /// the query table, which registration/ingestion mutate. The gauge
  /// VALUES it publishes are atomics, so a concurrent
  /// metrics_registry().TakeSnapshot() on another thread is safe.
  void RefreshMetricsGauges() const;

  /// RefreshMetricsGauges() + metrics_registry().TakeSnapshot(): a merged
  /// view of every instrument with gauges freshly refreshed. Writer-thread
  /// only (see RefreshMetricsGauges); background exporters must instead
  /// call metrics_registry().TakeSnapshot() and let the writer thread
  /// refresh gauges between commands — tools/skimjoin_cli.cc shows the
  /// split.
  metrics::Snapshot MetricsSnapshot() const;

  /// Runtime toggle for the per-stream workload profiler (default on).
  /// While off, ingestion skips the profiler entirely; already-collected
  /// profile state is kept and resumes accumulating on re-enable.
  void SetProfilerEnabled(bool enabled) { profiler_enabled_ = enabled; }
  bool profiler_enabled() const { return profiler_enabled_; }

  /// The live profile of one stream: heavy hitters, fitted skew, distinct
  /// estimate, delete ratio (util/stream_profiler.h). Writer-thread only
  /// (snapshotting walks the heavy-hitter structure). NOT_FOUND for an
  /// unknown stream.
  StatusOr<util::StreamProfiler::Snapshot> StreamProfile(
      const std::string& stream) const;

  /// Assembles the full health picture: every stream's profile, a health
  /// probe of every join/frequency query's synopses, and the rule-based
  /// findings derived from both. Also publishes the `query.<id>.health.*`
  /// gauges. Estimate-priced (skimmed probes run SKIMDENSE on copies) and
  /// read-only — answers before and after are bit-identical. Writer-thread
  /// only. (Return type qualified: the member name hides the struct inside
  /// the class scope.)
  query::HealthReport HealthReport() const;

  /// Attaches an exact frequency reference for accuracy-drift monitoring
  /// of `stream` (pass nullptr to detach). The caller keeps ownership and
  /// must keep `reference` alive and up to date; whenever a query over the
  /// stream answers, the engine computes the exact answer from the
  /// reference and records the relative error into the query's
  /// `query.<id>.rel_error` histogram. Covered answers: point frequency,
  /// distinct count, and join size (the latter only when both streams have
  /// references, both inputs are COUNT, and no predicates apply — the
  /// reference holds raw frequencies, so filtered or measure-weighted
  /// queries have no exact counterpart to compare against). NOT_FOUND for
  /// an unknown stream; INVALID_ARGUMENT when the reference's domain does
  /// not match the stream's (a smaller reference would abort on Get()).
  Status AttachAccuracyReference(const std::string& stream,
                                 const stream::FrequencyVector* reference);

  /// Current estimate of a join or self-join query.
  StatusOr<double> AnswerJoin(QueryId query) const;

  /// AnswerJoin with full provenance (per-copy estimates, empirical CI,
  /// a-priori bound, skim diagnostics where the method is skimmed). The
  /// report's `estimate` is bit-identical to AnswerJoin's answer. Records
  /// the report-derived instruments (`query.<id>.ci_rel_width`, and
  /// `query.<id>.skim_residual_ratio` for skimmed methods) and emits a
  /// `ci_blowup` warn event when the CI's relative width crosses
  /// SetCiWarnRelWidth. Reports are built here, at estimate time — never
  /// on the ingest path.
  StatusOr<EstimateReport> AnswerJoinWithReport(QueryId query) const;

  /// AnswerChainJoin with provenance (per-copy estimates and empirical CI;
  /// chain joins have no closed-form a-priori envelope).
  StatusOr<EstimateReport> AnswerChainJoinWithReport(QueryId query) const;

  /// Accuracy-drift alerting: when a query's observed rel_error (see
  /// AttachAccuracyReference) exceeds `threshold`, the engine emits an
  /// `accuracy_drift` warn event to EventLog::Global() alongside the
  /// histogram record. +infinity (the default) disables emission; the
  /// histograms record either way.
  void SetAccuracyDriftWarnThreshold(double threshold) {
    drift_warn_threshold_ = threshold;
  }

  /// CI blow-up alerting for *WithReport answers: when a report's relative
  /// CI width exceeds `threshold`, the engine emits a `ci_blowup` warn
  /// event. +infinity (the default) disables emission.
  void SetCiWarnRelWidth(double threshold) { ci_warn_rel_width_ = threshold; }

  /// Current point-frequency estimate from a frequency query.
  StatusOr<int64_t> AnswerPointFrequency(QueryId query, uint64_t value) const;

  /// Values currently estimated at |frequency| >= threshold.
  StatusOr<core::DenseFrequencies> AnswerHeavyHitters(QueryId query,
                                                      int64_t threshold) const;

  /// Current COUNT DISTINCT estimate from a distinct-count query.
  StatusOr<double> AnswerDistinctCount(QueryId query) const;

  /// Current top-k values with estimated frequencies, best first.
  StatusOr<std::vector<std::pair<uint64_t, int64_t>>> AnswerTopK(
      QueryId query) const;

  /// Current φ-quantile of a quantile query's insert stream.
  StatusOr<uint64_t> AnswerQuantile(QueryId query, double phi) const;

  /// Current estimated sum of frequencies over [lo, hi] from a range-sum
  /// query's compressed wavelet synopsis.
  StatusOr<double> AnswerRangeSum(QueryId query, uint64_t lo,
                                  uint64_t hi) const;

  /// Current chain-join COUNT estimate.
  StatusOr<double> AnswerChainJoin(QueryId query) const;

  /// Net element count (inserts minus deletes) seen on a stream.
  StatusOr<int64_t> StreamElementCount(const std::string& stream) const;

  /// Names of every registered stream, in registration order.
  std::vector<std::string> StreamNames() const;

  /// Writes the engine's complete state — streams, relations, every query's
  /// spec + seed, and each supported query's synopsis — to `path` as one
  /// per-section-checksummed durable file, committed atomically (a crash
  /// mid-save never clobbers an existing checkpoint at `path`). Queries
  /// whose synopses SerializeQuerySynopsis cannot write are recorded in
  /// the manifest as unsupported. `metadata` is an arbitrary caller-owned
  /// map round-tripped through RestoreCheckpoint. Defined in checkpoint.cc.
  Status SaveCheckpoint(
      const std::string& path,
      const std::map<std::string, std::string>& metadata = {}) const;

  /// Rebuilds this engine from a checkpoint written by SaveCheckpoint, so
  /// that continued ingestion and every Answer* agree exactly with an
  /// engine that never stopped. FAILED_PRECONDITION unless the engine is
  /// empty. On failure the engine is left empty — never half-restored. See
  /// RestoreOptions for strict vs. allow_partial semantics. Defined in
  /// checkpoint.cc.
  StatusOr<RestoreReport> RestoreCheckpoint(const std::string& path,
                                            const RestoreOptions& options = {});

  /// Writes one query's synopsis as its family's self-describing text
  /// record: the one per-kind synopsis dispatch, shared by checkpoints and
  /// a distributed worker's delta pulls. NOT_FOUND for an unknown id;
  /// UNIMPLEMENTED for the non-serializable join methods (sampling and
  /// partitioned AGMS).
  Status SerializeQuerySynopsis(QueryId query, std::string* out) const;

  /// Inverse of SerializeQuerySynopsis: sets `query`'s synopsis to the
  /// merge of `records`, each written by SerializeQuerySynopsis for a
  /// query of the same spec and seed. The synopses are linear, so the
  /// merge of shard records equals one synopsis that saw every shard's
  /// elements. Checkpoint restore passes one record and a distributed
  /// coordinator one per shard; top-k, quantile and range-sum synopses do
  /// not merge and take exactly one. Drops the query's cached answers.
  /// NOT_FOUND for an unknown id; INVALID_ARGUMENT for no records, a
  /// malformed record, or one that disagrees with the query's spec (a bad
  /// first record leaves the synopsis as it was, a later one leaves the
  /// merge of the records before it).
  Status LoadQuerySynopsis(QueryId query,
                           std::span<const std::string> records);

  /// Drops every stream, relation, and query, returning the engine to its
  /// freshly constructed state (ingest shards included).
  void Clear();

  uint64_t num_streams() const { return streams_.size(); }
  uint64_t num_relations() const { return relations_.size(); }
  uint64_t num_queries() const { return queries_.size(); }

 private:
  struct StreamState {
    StreamSpec spec;
    int64_t element_count = 0;
    // Registry-backed ingest counters (`ingest.<name>.*`); the pointees are
    // owned by metrics_ and stay valid until Clear().
    metrics::Counter* absorbed = nullptr;
    metrics::Counter* batches = nullptr;
    metrics::Counter* dropped = nullptr;
    metrics::Counter* merges = nullptr;
    metrics::Counter* absorb_nanos = nullptr;
    metrics::Counter* merge_nanos = nullptr;
    // Plan-cache hit/miss totals over this stream's frequency-query
    // synopses, accumulated on the inline path (worker replicas keep their
    // caches worker-local; see docs/OBSERVABILITY.md).
    metrics::Counter* hash_cache_hits = nullptr;
    metrics::Counter* hash_cache_misses = nullptr;
    // Elements accepted by concurrent-mode UpdateBatch but not yet visible
    // to readers (`ingest.<name>.epoch_lag`); 0 outside concurrent mode.
    metrics::Gauge* epoch_lag = nullptr;
    // Exact frequencies for accuracy-drift monitoring; caller-owned, null
    // when no reference is attached.
    const stream::FrequencyVector* reference = nullptr;
    // Live workload profiler, fed from the ingest paths while the runtime
    // toggle is on. unique_ptr: the profiler's atomic tallies make it
    // immovable, and StreamStates live in a reallocating vector.
    std::unique_ptr<util::StreamProfiler> profiler;
  };

  /// Cached `query.<id>.*` instrument pointers, created at registration.
  struct QueryMetrics {
    metrics::Counter* estimate_calls = nullptr;
    metrics::ShardedHistogram* estimate_ns = nullptr;
    metrics::Gauge* memory_bytes = nullptr;
    metrics::ShardedHistogram* rel_error = nullptr;
    // Report-derived instruments, recorded only by *WithReport answers.
    metrics::ShardedHistogram* ci_rel_width = nullptr;
    metrics::ShardedHistogram* skim_residual_ratio = nullptr;
    // Read-path cache outcome counters (`query.<id>.cache_*`), bumped only
    // while ReadPathOptions.use_query_cache is on.
    metrics::Counter* cache_hits = nullptr;
    metrics::Counter* cache_misses = nullptr;
    metrics::Counter* cache_invalidations = nullptr;
  };

  /// One stream a query reads: the elements its predicate admits,
  /// weighted by `input`.
  struct QueryInput {
    StreamId stream = 0;
    std::optional<RangePredicate> predicate;
    AggregateInput input = AggregateInput::kCount;
  };

  /// A frequency query's sketch and the worker ingestor that may feed it.
  struct FrequencySynopsis {
    core::SkimmedSketch sketch;
    /// Sketch-side plan-cache tallies already exported to the stream's
    /// hash_cache_* counters; the batch path and the (const, writer-thread)
    /// pull-style RefreshMetricsGauges publish deltas against these.
    mutable uint64_t cache_hits_seen = 0;
    mutable uint64_t cache_misses_seen = 0;
    /// Worker ingestor over `sketch` while IngestOptions has more than one
    /// shard or `concurrent` on (null otherwise). Built lazily on the first
    /// worker batch — by then the state is map-resident, so the &sketch it
    /// captures is stable. Declared after `sketch` so its destructor (which
    /// flushes pending work into the sketch and joins the workers) runs
    /// while the sketch is still alive.
    std::unique_ptr<ingest::ConcurrentIngestor<core::SkimmedSketch>>
        concurrent = nullptr;
  };

  using JoinSynopsis = std::unique_ptr<core::JoinEstimatorPair>;
  using ChainSynopsis =
      std::variant<MultiJoinEstimator, MultiJoinHashEstimator>;

  /// A query's synopsis. The alternatives follow QuerySpec's order.
  using Synopsis =
      std::variant<JoinSynopsis, FrequencySynopsis, sketch::FmSketch,
                   core::TopKTracker, stream::GkQuantileSummary,
                   stream::WaveletSynopsis, ChainSynopsis>;

  /// The read-path cache guard: a join's two streams' absorbed-element
  /// counts, or a frequency sketch's update epoch (second slot zero).
  using Epochs = std::array<uint64_t, 2>;

  /// An answer and the epochs it was computed at (DESIGN.md §11).
  template <typename Answer>
  struct CachedAnswer {
    Epochs epochs;
    Answer answer;
  };

  /// Everything one registered query owns.
  struct QueryState {
    /// How to re-create the query: what SaveCheckpoint records.
    QuerySpec spec;
    uint64_t seed = 0;
    /// The streams it reads. A join reads two, left as side 0; a chain join
    /// reads relations and has none.
    std::vector<QueryInput> inputs;
    QueryMetrics metrics;
    Synopsis synopsis;
    /// Read-path cache: a join's last answer, a frequency query's point
    /// answers by value. Mutable: Answer* methods are const but fill it
    /// (writer-thread state, like metrics_).
    mutable std::optional<CachedAnswer<double>> cached_join = std::nullopt;
    mutable std::unordered_map<uint64_t, CachedAnswer<int64_t>>
        cached_points = {};

    void DropCachedAnswers() const {
      cached_join.reset();
      cached_points.clear();
    }
  };

  struct RelationState {
    RelationSpec spec;
    int64_t tuple_count = 0;
  };

  StatusOr<StreamId> FindStream(const std::string& name) const;

  /// Hands out the next query id and enters the query in the table.
  QueryId RegisterQuery(QuerySpec spec, uint64_t seed,
                        std::vector<QueryInput> inputs, Synopsis synopsis);

  /// Query `id` and its synopsis when that is an `S`: both null for an
  /// unknown id, the synopsis null for a query of another kind.
  template <typename S>
  std::pair<const QueryState*, const S*> FindQuery(QueryId id) const {
    const auto it = queries_.find(id);
    if (it == queries_.end()) return {nullptr, nullptr};
    return {&it->second, std::get_if<S>(&it->second.synopsis)};
  }

  static int64_t WeightFor(AggregateInput input, const StreamUpdate& update) {
    return input == AggregateInput::kCount ? update.count : update.measure;
  }

  /// The one ingest fan-out, behind both Update and UpdateBatch. Validates
  /// `updates` once: out-of-domain elements are dropped and counted, the
  /// rest move element_count, the absorbed counter and the profiler. Then,
  /// query by query, every input that reads `stream` takes its Project of
  /// the batch in arrival order. Every input is fed even after one fails;
  /// the first error (a frequency query's worker ingestor that cannot be
  /// built) is returned.
  Status FanOut(StreamId stream, std::span<const StreamUpdate> updates);

  /// Fills projection_ with one input's view of `updates`: the in-domain
  /// elements `predicate` admits, weighted by `input`, with zero weights
  /// left out. The span is valid until the next call.
  std::span<const stream::StreamElement> Project(
      std::span<const StreamUpdate> updates, uint64_t domain_size,
      const std::optional<RangePredicate>& predicate, AggregateInput input);

  /// Feeds input `side` of `q` its projection, in arrival order.
  Status Feed(QueryState& q, size_t side,
              std::span<const stream::StreamElement> elements);

  /// Feeds one frequency query over `stream` its projection. A single
  /// element takes SkimmedSketch::Update (under the writer lock when a
  /// worker ingestor is live); more take UpdateBatch inline, or the worker
  /// ingestor when IngestOptions has more than one shard or `concurrent`
  /// on.
  Status FeedFrequencyQuery(FrequencySynopsis& f, StreamId stream,
                            std::span<const stream::StreamElement> elements);

  StatusOr<StreamId> FindRelation(const std::string& name) const;

  /// Publishes `f`'s plan-cache activity to `stream`'s hash_cache_*
  /// counters as deltas against the last export (so a restored sketch,
  /// whose tallies restart, publishes cleanly). Called after every inline
  /// UpdateBatch kernel call and, pull-style, from RefreshMetricsGauges,
  /// which picks up one-element projections (they skip the per-call
  /// publish: it walks every dyadic level). Writer-thread only; worker
  /// replicas keep their caches worker-local, so the counters reflect the
  /// inline path only.
  void PublishHashCacheDeltas(StreamId stream,
                              const FrequencySynopsis& f) const;

  /// Flushes `f`'s live ingestor and publishes the flush to `stream`'s
  /// merges / absorb_nanos / merge_nanos counters. Pre-condition:
  /// f.concurrent is non-null.
  void FlushFrequencyIngest(FrequencySynopsis& f, StreamId stream);

  /// Creates the `ingest.<name>.*` counters for a freshly registered
  /// stream and caches their pointers in `*state`.
  void InitStreamMetrics(StreamState* state);

  /// Registers the `query.<id>.*` instruments for a new query.
  QueryMetrics MakeQueryMetrics(QueryId id);

  /// Assembles the public IngestStats struct from a stream's counters.
  ingest::IngestStats IngestStatsFor(const StreamState& state) const;

  /// Records |estimate - exact| / max(1, |exact|) into `histogram` and,
  /// when the relative error crosses the drift-warn threshold, emits an
  /// `accuracy_drift` warn event naming `query`.
  void RecordRelError(QueryId query, metrics::ShardedHistogram* histogram,
                      double estimate, double exact) const;

  /// Records join-estimate drift when both sides have references attached
  /// and the query compares exactly (COUNT inputs, no predicates).
  void MaybeRecordJoinDrift(QueryId query, const QueryState& q,
                            double estimate) const;

  /// Records a *WithReport answer's derived instruments (CI relative
  /// width; skim residual ratios when present) and emits a `ci_blowup`
  /// warn event past the CI-warn threshold.
  void RecordReportMetrics(QueryId query, const QueryMetrics& metrics,
                           const EstimateReport& report) const;

  /// `entry` when it was computed at `epochs` (a hit); else null (a miss,
  /// and an invalidation too when `entry` is stale). Bumps the matching
  /// `query.<id>.cache_*` counters.
  template <typename Answer>
  static const CachedAnswer<Answer>* LookupCached(
      const CachedAnswer<Answer>* entry, const Epochs& epochs,
      const QueryMetrics& metrics);

  /// Reader lock over a frequency query's sketch when a worker ingestor
  /// is live; a no-op (lockless) guard otherwise. Answer paths
  /// hold one across every sketch read so they observe whole-epoch
  /// snapshots, never a mid-propagation state.
  using FrequencyReadLock =
      ingest::ConcurrentIngestor<core::SkimmedSketch>::ReadLock;
  static FrequencyReadLock ReadLockFor(const FrequencySynopsis& f) {
    return f.concurrent ? f.concurrent->ReaderLock() : FrequencyReadLock();
  }

  // Declared first so every cached instrument pointer in the states below
  // is destroyed before the registry that owns the pointees. Mutable:
  // const paths (MetricsSnapshot, SaveCheckpoint) register engine-level
  // gauges on first use — instruments are observability, not engine state.
  mutable metrics::Registry metrics_;
  std::vector<StreamState> streams_;
  std::unordered_map<std::string, StreamId> stream_ids_;
  std::vector<RelationState> relations_;
  std::unordered_map<std::string, StreamId> relation_ids_;
  // The query table: everything each registered query owns, ascending by
  // id.
  std::map<QueryId, QueryState> queries_;
  QueryId next_query_id_ = 1;
  // Ingestion concurrency configuration (shards + concurrent mode knobs).
  IngestOptions ingest_options_;
  // Project's output buffer, reused across sides and calls so steady-state
  // ingest allocates nothing. Writer-thread state like everything above.
  std::vector<stream::StreamElement> projection_;
  // Two-stage read path selection (defaults all-off). Survives Clear(): it
  // is a session-level setting, not engine state.
  ReadPathOptions read_path_;
  // Anomaly-event thresholds; +infinity disables emission (the default).
  double drift_warn_threshold_ = std::numeric_limits<double>::infinity();
  double ci_warn_rel_width_ = std::numeric_limits<double>::infinity();
  // Runtime profiler toggle (see SetProfilerEnabled). Like read_path_, a
  // session-level setting that survives Clear().
  bool profiler_enabled_ = true;
};

}  // namespace query
}  // namespace skimjoin

#endif  // SKIMJOIN_QUERY_ENGINE_H_
