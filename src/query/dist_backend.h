// The engine-shaped face of a distributed deployment, as the shell and CLI
// see it. An attached DistBackend routes registrations, ingest, and
// answers to a fleet of worker shards instead of the local engine; the
// concrete implementation (dist::Coordinator) lives in src/dist/ — this
// interface is what keeps query/ free of any dependency on the wire layer.
//
// The contract mirrors query::Engine where the operations overlap, with
// two distributed additions: answers may be PARTIAL (EstimateReport.partial
// plus per-shard contributions tell the caller exactly which shards were
// stale or missing), and the fleet's health is inspectable per shard.

#ifndef SKIMJOIN_QUERY_DIST_BACKEND_H_
#define SKIMJOIN_QUERY_DIST_BACKEND_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "query/engine.h"
#include "query/query.h"
#include "util/estimate_report.h"
#include "util/metrics.h"
#include "util/status.h"

namespace skimjoin {
namespace query {

/// One worker shard's condition as last observed by the backend.
struct DistShardStatus {
  std::string shard;
  /// "healthy" | "recovering" | "down".
  std::string health;
  /// Worker incarnation from the last handshake (0 = never reached).
  uint64_t incarnation = 0;
  /// Last update epoch the worker acknowledged.
  uint64_t last_acked_epoch = 0;
  /// Cumulative RPC retries / hard failures against this shard.
  uint64_t rpc_retries = 0;
  uint64_t rpc_failures = 0;
};

class DistBackend {
 public:
  virtual ~DistBackend() = default;

  virtual Status RegisterStream(const StreamSpec& spec) = 0;
  /// Registers any query from its spec, like Engine::AddQuery; a backend
  /// refuses the kinds it cannot answer before anything reaches a shard.
  virtual StatusOr<QueryId> AddQuery(const QuerySpec& spec, uint64_t seed) = 0;

  virtual Status Update(const std::string& stream,
                        const StreamUpdate& update) = 0;
  virtual Status UpdateBatch(const std::string& stream,
                             std::span<const StreamUpdate> updates) = 0;

  virtual StatusOr<double> AnswerJoin(QueryId query) = 0;
  virtual StatusOr<EstimateReport> AnswerJoinWithReport(QueryId query) = 0;
  virtual StatusOr<int64_t> AnswerPointFrequency(QueryId query,
                                                 uint64_t value) = 0;

  // --- Chain joins over relations (default: not supported) ---------------

  virtual Status RegisterRelation(const RelationSpec& spec) {
    (void)spec;
    return UnimplementedError("backend does not support relations");
  }
  virtual Status UpdateRelation(const std::string& relation,
                                const std::vector<uint64_t>& attributes,
                                int64_t weight) {
    (void)relation;
    (void)attributes;
    (void)weight;
    return UnimplementedError("backend does not support relations");
  }
  virtual StatusOr<double> AnswerChainJoin(QueryId query) {
    (void)query;
    return UnimplementedError("backend does not support chain joins");
  }
  virtual StatusOr<EstimateReport> AnswerChainJoinWithReport(QueryId query) {
    (void)query;
    return UnimplementedError("backend does not support chain joins");
  }

  // --- Fleet telemetry (default: not supported) ---------------------------

  /// The backend's own snapshot merged with every reachable shard's,
  /// shard series renamed `base{shard="<index>"}` (metrics::LabeledName).
  virtual StatusOr<metrics::Snapshot> FleetMetricsSnapshot() {
    return UnimplementedError("backend does not support fleet telemetry");
  }

  /// Pulls every shard's new event-log entries and re-emits them into this
  /// process's EventLog::Global(), tagged with an `origin_shard` field.
  /// Incremental: already-scraped sequences are skipped per shard.
  virtual Status ScrapeFleetEvents() {
    return UnimplementedError("backend does not support fleet telemetry");
  }

  /// Enables/disables trace recording on this process AND every shard.
  virtual Status SetFleetTracing(bool enable) {
    (void)enable;
    return UnimplementedError("backend does not support fleet tracing");
  }

  /// Drains this process's and every shard's trace buffers into one merged
  /// Chrome trace JSON document (per-process tracks, clock-aligned).
  virtual StatusOr<std::string> DumpFleetTrace() {
    return UnimplementedError("backend does not support fleet tracing");
  }

  /// Every reachable shard's health findings merged into one report, each
  /// finding labeled with its origin shard index (HealthFinding::shard);
  /// unreachable shards contribute an "unreachable" finding instead of
  /// silence. The fleet report carries findings only — per-stream profiles
  /// and per-synopsis probes stay on the workers.
  virtual StatusOr<HealthReport> FleetHealthReport() {
    return UnimplementedError("backend does not support fleet telemetry");
  }

  /// Asks every shard to checkpoint its engine state now.
  virtual Status CheckpointShards() = 0;

  /// One single-attempt ping per shard, refreshing health states. Always
  /// OK — the result is the refreshed ShardStatuses().
  virtual Status ProbeHealth() = 0;

  virtual std::vector<DistShardStatus> ShardStatuses() = 0;
  virtual uint64_t NumShards() const = 0;

  /// The backend's own metrics registry (the per-shard `dist.<shard>.*`
  /// instruments), or nullptr when the backend exposes none. The shell's
  /// `metrics` command renders this registry while a backend is attached.
  virtual metrics::Registry* MetricsRegistry() { return nullptr; }
};

}  // namespace query
}  // namespace skimjoin

#endif  // SKIMJOIN_QUERY_DIST_BACKEND_H_
