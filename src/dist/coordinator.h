// The coordinator of the distributed skimjoin runtime: fans registrations
// and shard-routed ingest out to workers, pulls per-query synopsis deltas
// back, and answers by LINEARITY — every distributable synopsis is a
// vector of counters, so summing shard synopses counter-for-counter yields
// exactly the synopsis one engine would have built from the whole stream.
//
// One query::Engine does the query work. The coordinator's private engine
// mirrors every registration and never ingests: streams, relations and
// queries register there first, so only specs the workers' own engines
// accept reach the wire and the replay log. An answer pulls every shard's
// delta, loads their merge into that engine's synopsis
// (Engine::LoadQuerySynopsis) and asks the engine, so with every shard
// fresh, coordinator answers are bit-identical to a single engine's (the
// integration test pins this).
//
// Robustness model (the headline of this subsystem):
//   * Every RPC is bounded by a deadline and a retry budget with
//     exponential backoff + jitter; a worker can hang, die, or corrupt a
//     frame without ever wedging the coordinator.
//   * Health per shard: healthy → down after `down_after_failures`
//     consecutive failures (a `worker_down` warn event), down → recovering
//     on the next successful handshake, recovering → healthy on the next
//     successful delta pull (`worker_restored` event). Each retry emits an
//     `rpc_retry` info event; per-shard `dist.<shard>.*` counters/gauges
//     live in the coordinator's metrics registry.
//   * Re-adoption: the hello handshake carries the worker's incarnation;
//     a changed incarnation means "restarted" (from its checkpoint or
//     empty), and the coordinator replays its recorded registrations
//     (idempotent on the worker) before using the shard again.
//   * No double-merge by construction: deltas are full synopsis state, and
//     the coordinator keeps exactly one cached delta per (shard, query),
//     replaced wholesale on every successful pull. A restarted worker's
//     replayed updates appear inside its next full delta — there is no
//     increment stream that could be applied twice.
//   * Degraded answers: when a pull fails, the answer falls back to the
//     shard's cached delta and the EstimateReport flags the answer partial,
//     listing each shard's health, freshness, and epoch lag.

#ifndef SKIMJOIN_DIST_COORDINATOR_H_
#define SKIMJOIN_DIST_COORDINATOR_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "dist/frame.h"
#include "dist/protocol.h"
#include "query/dist_backend.h"
#include "query/engine.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/status.h"

namespace skimjoin {
namespace dist {

/// One worker address.
struct ShardAddress {
  std::string name;
  std::string socket_path;
};

struct CoordinatorOptions {
  /// Per-RPC-attempt deadline.
  std::chrono::milliseconds rpc_timeout{2000};
  /// Attempts per RPC (first try + retries). >= 1.
  int rpc_attempts = 3;
  /// Backoff before retry k (1-based): min(cap, base << (k-1)), scaled by
  /// a uniform jitter in [0.5, 1.0].
  std::chrono::milliseconds backoff_base{20};
  std::chrono::milliseconds backoff_cap{500};
  /// Consecutive hard failures before a shard is marked down.
  int down_after_failures = 2;
  /// Seed for the jitter RNG (deterministic backoff schedules in tests).
  uint64_t jitter_seed = 0x636f6f7264ULL;
};

class Coordinator : public query::DistBackend {
 public:
  /// Connections are lazy: construction never touches the network.
  Coordinator(std::vector<ShardAddress> shards, CoordinatorOptions options);

  // --- query::DistBackend -------------------------------------------------
  Status RegisterStream(const query::StreamSpec& spec) override;
  /// Join, frequency and chain-join queries; UNIMPLEMENTED for the kinds
  /// the fleet cannot answer and for joins whose synopsis does not
  /// serialize (sampling, partitioned AGMS).
  StatusOr<query::QueryId> AddQuery(const query::QuerySpec& spec,
                                    uint64_t seed) override;
  Status Update(const std::string& stream,
                const query::StreamUpdate& update) override;
  Status UpdateBatch(const std::string& stream,
                     std::span<const query::StreamUpdate> updates) override;
  StatusOr<double> AnswerJoin(query::QueryId query) override;
  StatusOr<EstimateReport> AnswerJoinWithReport(query::QueryId query) override;
  StatusOr<int64_t> AnswerPointFrequency(query::QueryId query,
                                         uint64_t value) override;
  Status RegisterRelation(const query::RelationSpec& spec) override;
  Status UpdateRelation(const std::string& relation,
                        const std::vector<uint64_t>& attributes,
                        int64_t weight) override;
  StatusOr<double> AnswerChainJoin(query::QueryId query) override;
  StatusOr<EstimateReport> AnswerChainJoinWithReport(
      query::QueryId query) override;
  StatusOr<metrics::Snapshot> FleetMetricsSnapshot() override;
  Status ScrapeFleetEvents() override;
  Status SetFleetTracing(bool enable) override;
  StatusOr<std::string> DumpFleetTrace() override;
  StatusOr<query::HealthReport> FleetHealthReport() override;
  Status CheckpointShards() override;
  Status ProbeHealth() override;
  std::vector<query::DistShardStatus> ShardStatuses() override;
  uint64_t NumShards() const override { return shards_.size(); }
  metrics::Registry* MetricsRegistry() override { return &metrics_; }

  /// Per-kind forms of AddQuery, mirroring query::Engine's.
  StatusOr<query::QueryId> AddJoinQuery(const query::JoinQuerySpec& spec,
                                        uint64_t seed) {
    return AddQuery(spec, seed);
  }
  StatusOr<query::QueryId> AddSelfJoinQuery(
      const query::SelfJoinQuerySpec& spec, uint64_t seed) {
    return AddQuery(query::AsJoinQuerySpec(spec), seed);
  }
  StatusOr<query::QueryId> AddFrequencyQuery(
      const query::FrequencyQuerySpec& spec, uint64_t seed) {
    return AddQuery(spec, seed);
  }
  StatusOr<query::QueryId> AddChainJoinQuery(
      const query::ChainJoinQuerySpec& spec, uint64_t seed) {
    return AddQuery(spec, seed);
  }

  /// Which shard an element routes to: value % NumShards(). Exposed so
  /// tests can aim updates at a chosen victim shard.
  uint64_t ShardIndexFor(uint64_t value) const {
    return value % shards_.size();
  }

  /// The coordinator's own metrics (`dist.<shard>.*`), Prometheus-
  /// exportable like any registry.
  metrics::Registry& metrics_registry() { return metrics_; }

 private:
  enum class Health { kHealthy, kRecovering, kDown };
  static const char* HealthName(Health health);

  /// A shard-local copy of one query's last pulled synopsis. Full state:
  /// each successful pull REPLACES it (see file comment — this is the
  /// no-double-merge invariant).
  struct CachedDelta {
    std::string synopsis;
    uint64_t incarnation = 0;
    uint64_t epoch = 0;
    /// Pull round that produced it; == current round ⇒ fresh.
    uint64_t round = 0;
    bool valid = false;
  };

  struct ShardState {
    ShardAddress address;
    FrameChannel channel;
    Health health = Health::kHealthy;
    int consecutive_failures = 0;
    uint64_t incarnation = 0;
    uint64_t last_acked_epoch = 0;
    std::unordered_map<query::QueryId, CachedDelta> deltas;
    /// Estimated worker-recorder-clock minus coordinator-recorder-clock, in
    /// micros, from the hello handshake: the reply's trace_clock_micros
    /// against the round trip's midpoint on the coordinator's clock.
    /// Negated, it is the ProcessTrace clock offset that shifts the
    /// worker's trace timestamps onto the coordinator's timeline.
    int64_t clock_offset_micros = 0;
    /// Highest worker event-log sequence already scraped (per-incarnation:
    /// a restarted worker restarts its sequence numbers, so re-adoption
    /// resets this to 0).
    uint64_t events_scraped_through = 0;
    metrics::Counter* rpc_calls = nullptr;
    metrics::Counter* rpc_retries = nullptr;
    metrics::Counter* rpc_failures = nullptr;
    metrics::Counter* delta_bytes = nullptr;
    metrics::Gauge* health_gauge = nullptr;  // 0 healthy, 1 recovering, 2 down
    metrics::Gauge* epoch_gauge = nullptr;
  };

  /// One registration, recorded in order for replay after a worker
  /// restart.
  using Registration = std::variant<StreamReg, QueryReg, RelationReg>;

  /// Ensures a connected, handshaken channel. A handshake that fails after
  /// connect closes the channel again and leaves the shard unadopted; a
  /// replayed registration the worker refuses fails as a shard failure,
  /// not as a remote answer.
  Status EnsureConnected(ShardState& shard);

  /// Hello, clock offset and, for a NEW incarnation (first contact or
  /// restart), registration replay on a freshly connected channel. Adopts
  /// the incarnation only once the whole replay is acknowledged.
  Status Handshake(ShardState& shard, Deadline deadline);

  /// One deadline-bounded request/reply against a connected channel (no
  /// retries — Rpc layers those on top).
  StatusOr<Frame> CallOnce(ShardState& shard, MessageType type,
                           std::string_view payload);

  /// The retrying RPC: up to rpc_attempts tries, each its own connect +
  /// call under rpc_timeout, with jittered exponential backoff between.
  /// Returns the reply kMessages pairs with `request`, decoded; a reply of
  /// another type or one that does not decode is INVALID_ARGUMENT.
  template <typename Request>
  StatusOr<ReplyTo<Request>> Rpc(ShardState& shard, const Request& request);

  /// Broadcasts one registration to every shard and records it for replay.
  /// Fails if any shard never acked (after retries) — registrations are
  /// the one operation that must reach everyone before use.
  template <typename Request>
  Status Broadcast(const Request& registration);

  void MarkFailure(ShardState& shard, const Status& status);
  void MarkSuccess(ShardState& shard);
  void PublishHealth(ShardState& shard);

  /// Pulls `query`'s delta from every shard (one new round; failures keep
  /// the stale cache) and loads the merge of every cached delta into the
  /// engine's synopsis. Returns per-shard contributions for the report.
  /// NOT_FOUND for an unknown query; FAILED_PRECONDITION when no shard has
  /// delivered a delta yet.
  StatusOr<std::vector<ShardContribution>> Refresh(query::QueryId query);

  /// The `dist.rpc.<name>.latency_ns` histogram of one request type
  /// (`name` is its kMessages row's), created on first use and cached
  /// (registry instruments are stable).
  metrics::ShardedHistogram* RpcLatencyHistogram(MessageType type,
                                                 const char* name);

  /// Serializes the whole public surface. Coarse by design: the
  /// coordinator is a control plane, not a data plane — contention is
  /// between the shell/CLI thread and the PeriodicSnapshotWriter scraping
  /// fleet metrics in the background. Update() stays lock-free and
  /// delegates to UpdateBatch() (which locks) to avoid self-deadlock.
  std::mutex mutex_;

  std::vector<std::unique_ptr<ShardState>> shards_;
  CoordinatorOptions options_;
  metrics::Registry metrics_;
  Rng jitter_rng_;
  /// Mirrors every registration and never ingests: it validates specs and
  /// answers from the merged shard synopses.
  query::Engine engine_;
  /// Relation arities, for routing UpdateRelation tuples.
  std::map<std::string, uint64_t> relation_arities_;
  /// Queries registered fleet-wide ("q<id>" on the wire); ids are engine_'s.
  std::set<query::QueryId> queries_;
  std::vector<Registration> registrations_;
  /// MessageType → latency histogram, filled lazily by RpcLatencyHistogram.
  std::unordered_map<uint32_t, metrics::ShardedHistogram*> rpc_latency_;
  uint64_t pull_round_ = 0;
};

}  // namespace dist
}  // namespace skimjoin

#endif  // SKIMJOIN_DIST_COORDINATOR_H_
