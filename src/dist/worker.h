// A worker shard of the distributed skimjoin runtime: one process owning a
// slice of every registered stream, wrapped around an ordinary
// query::Engine. The worker is deliberately thin — all estimation
// machinery, fast-path ingest kernels, and checkpoint durability are the
// engine's; the worker adds only the protocol surface and the restart
// story:
//
//   * Registrations (streams, relations, and queries of any kind, each
//     query as its spec record) arrive over the wire and are IDEMPOTENT by
//     name, so a coordinator re-adopting a restarted worker can blindly
//     replay them.
//   * Every kUpdateBatch bumps the worker's EPOCH (batches applied) and is
//     acknowledged with it; the coordinator uses acked epochs to measure
//     how far a restarted shard lags.
//   * With a checkpoint path configured, the worker persists engine state +
//     its own protocol bookkeeping (incarnation, epoch, query-name map) in
//     the checkpoint's metadata; on startup it restores the newest
//     checkpoint and advertises incarnation+1, which is what tells the
//     coordinator "I am the same shard, restarted, at this older epoch".
//     A worker that restores nothing advertises a random incarnation, so
//     an empty restart is re-adopted (registrations replayed) as well.
//
// Serve() is a single-threaded poll loop (the engine is single-writer by
// contract), handling any number of concurrent connections; a torn or
// corrupt frame poisons only its own connection, never the server.

#ifndef SKIMJOIN_DIST_WORKER_H_
#define SKIMJOIN_DIST_WORKER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dist/frame.h"
#include "dist/protocol.h"
#include "query/engine.h"
#include "util/metrics.h"
#include "util/status.h"

namespace skimjoin {
namespace dist {

struct WorkerOptions {
  /// Unix-domain socket to serve on (stale socket files are re-adopted).
  std::string socket_path;
  /// Shard name advertised in the hello handshake.
  std::string shard_name = "shard";
  /// Engine checkpoint file; empty disables persistence (a killed worker
  /// then restarts empty, at a fresh random incarnation and epoch 0).
  std::string checkpoint_path;
  /// Auto-checkpoint every N applied update batches (0 = only on explicit
  /// kCheckpoint requests).
  uint64_t checkpoint_every_batches = 0;
  /// Per-connection I/O deadline for reading a request / writing a reply.
  std::chrono::milliseconds io_timeout{2000};
};

class Worker {
 public:
  /// Binds the socket and, when a checkpoint exists at checkpoint_path,
  /// restores it (bumping the incarnation; otherwise the incarnation is
  /// fresh and random). The returned worker is ready for Serve().
  static StatusOr<std::unique_ptr<Worker>> Create(const WorkerOptions& options);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Serves until RequestStop(). Returns only fatal server errors
  /// (per-connection failures are contained and logged).
  Status Serve();

  /// Stops Serve() at its next poll tick. Safe from any thread or signal
  /// context (one atomic store).
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }

  uint64_t incarnation() const { return incarnation_; }
  uint64_t epoch() const { return epoch_; }
  const std::string& shard_name() const { return options_.shard_name; }

  /// The wrapped engine; single-writer — touch only from the Serve thread
  /// (or before Serve starts).
  query::Engine& engine() { return engine_; }

 private:
  explicit Worker(WorkerOptions options);

  /// Restores the checkpoint if one exists; sets incarnation_/epoch_ and
  /// rebuilds the query-name map from the checkpoint metadata. Without a
  /// checkpoint, draws a fresh incarnation.
  Status RestoreIfPresent();

  /// SaveCheckpoint with the worker's protocol bookkeeping as metadata.
  Status Checkpoint();

  // One handler per request payload, for protocol.h's Dispatch; kMessages
  // fixes each reply type.

  /// Hello and ping replies carry the recorder clock: one half of the fleet
  /// clock-offset estimate, which the coordinator pairs with the hello
  /// round trip's midpoint on its own recorder clock.
  StatusOr<HelloReply> Handle(const HelloMsg&) {
    return Progress(metrics::TraceRecorder::Global().NowMicros());
  }
  StatusOr<HelloReply> Handle(const PingMsg&) { return Handle(HelloMsg{}); }
  StatusOr<RegisteredMsg> Handle(const StreamReg& msg);
  StatusOr<RegisteredMsg> Handle(const QueryReg& msg);
  StatusOr<RegisteredMsg> Handle(const RelationReg& msg);
  StatusOr<HelloReply> Handle(const UpdateBatchMsg& msg);
  StatusOr<HelloReply> Handle(const RelationUpdateMsg& msg);
  StatusOr<DeltaMsg> Handle(const PullDeltaMsg& msg);
  StatusOr<HelloReply> Handle(const CheckpointMsg&);
  StatusOr<metrics::Snapshot> Handle(const MetricsRequest&);
  StatusOr<EventBatchMsg> Handle(const EventsRequest& msg);
  StatusOr<RegisteredMsg> Handle(const TraceControlMsg& msg);
  StatusOr<TraceEventsMsg> Handle(const TraceRequest&);
  StatusOr<HealthReportMsg> Handle(const HealthRequest&);

  /// The shard's identity and progress, as acks carry it (clock 0).
  HelloReply Progress(uint64_t trace_clock_micros = 0) const {
    return {options_.shard_name, incarnation_, epoch_, trace_clock_micros};
  }

  WorkerOptions options_;
  Listener listener_;
  query::Engine engine_;
  std::atomic<bool> stop_{false};
  /// The stored incarnation + 1 after a restore-from-checkpoint, else a
  /// fresh random one; never 0, which means "never seen" on the
  /// coordinator.
  uint64_t incarnation_ = 0;
  /// Update batches applied since the shard's birth (restored from
  /// checkpoint metadata, so a restart resumes at the checkpointed epoch).
  uint64_t epoch_ = 0;
  uint64_t batches_since_checkpoint_ = 0;
  /// Protocol-level query names → engine ids; persisted in checkpoint
  /// metadata so pulls keep resolving after a restart.
  std::map<std::string, query::QueryId> query_ids_;
  std::vector<FrameChannel> connections_;
};

}  // namespace dist
}  // namespace skimjoin

#endif  // SKIMJOIN_DIST_WORKER_H_
