#include "dist/worker.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <random>
#include <span>
#include <utility>

#include "util/event_log.h"
#include "util/metrics.h"

namespace skimjoin {
namespace dist {

namespace {

constexpr char kMetaIncarnation[] = "dist.incarnation";
constexpr char kMetaEpoch[] = "dist.epoch";
constexpr char kMetaQueryPrefix[] = "dist.query.";

// Decimal digits only: no sign, no whitespace.
bool ParseU64(const std::string& text, uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [last, error] = std::from_chars(text.data(), end, *out);
  return error == std::errc() && last == end;
}

/// The incarnation of a worker that restores no checkpoint: drawn at
/// random, so a restart that lost its state never repeats the incarnation
/// an earlier life advertised (the coordinator re-adopts on any change).
/// Nonzero, and far enough below 2^64 that restored lives can count up.
uint64_t FreshIncarnation() {
  std::random_device device;
  const uint64_t drawn = (uint64_t{device()} << 32) ^ device();
  return (drawn >> 2) + 1;
}

}  // namespace

Worker::Worker(WorkerOptions options) : options_(std::move(options)) {}

StatusOr<std::unique_ptr<Worker>> Worker::Create(const WorkerOptions& options) {
  SKIMJOIN_RETURN_IF_ERROR(
      ValidateWireName(options.shard_name, "shard name"));
  if (options.socket_path.empty()) {
    return InvalidArgumentError("WorkerOptions.socket_path must be set");
  }
  std::unique_ptr<Worker> worker(new Worker(options));
  SKIMJOIN_RETURN_IF_ERROR(worker->RestoreIfPresent());
  SKIMJOIN_ASSIGN_OR_RETURN(worker->listener_,
                            Listener::Create(options.socket_path));
  return worker;
}

Status Worker::RestoreIfPresent() {
  if (options_.checkpoint_path.empty() ||
      !std::ifstream(options_.checkpoint_path).good()) {
    incarnation_ = FreshIncarnation();
    return OkStatus();
  }
  SKIMJOIN_ASSIGN_OR_RETURN(
      query::RestoreReport report,
      engine_.RestoreCheckpoint(options_.checkpoint_path));
  uint64_t stored_incarnation = 0;
  uint64_t stored_epoch = 0;
  for (const auto& [key, value] : report.metadata) {
    if (key == kMetaIncarnation) {
      if (!ParseU64(value, &stored_incarnation)) {
        return InvalidArgumentError("corrupt dist.incarnation in checkpoint");
      }
    } else if (key == kMetaEpoch) {
      if (!ParseU64(value, &stored_epoch)) {
        return InvalidArgumentError("corrupt dist.epoch in checkpoint");
      }
    } else if (key.rfind(kMetaQueryPrefix, 0) == 0) {
      uint64_t id = 0;
      if (!ParseU64(value, &id)) {
        return InvalidArgumentError("corrupt query-id entry in checkpoint");
      }
      query_ids_[key.substr(sizeof(kMetaQueryPrefix) - 1)] = id;
    }
  }
  // Advertising incarnation + 1 is the restart signal: the coordinator
  // compares against the incarnation it last shook hands with and replays
  // registrations (and flags staleness) on any change.
  incarnation_ = stored_incarnation + 1;
  epoch_ = stored_epoch;
  EventLog::Global().Emit(
      LogLevel::kInfo, "worker_restored_from_checkpoint",
      {{"shard", options_.shard_name},
       {"incarnation", std::to_string(incarnation_)},
       {"epoch", std::to_string(epoch_)}});
  return OkStatus();
}

Status Worker::Checkpoint() {
  if (options_.checkpoint_path.empty()) {
    return FailedPreconditionError("worker has no checkpoint path configured");
  }
  std::map<std::string, std::string> metadata;
  metadata[kMetaIncarnation] = std::to_string(incarnation_);
  metadata[kMetaEpoch] = std::to_string(epoch_);
  for (const auto& [name, id] : query_ids_) {
    metadata[kMetaQueryPrefix + name] = std::to_string(id);
  }
  batches_since_checkpoint_ = 0;
  return engine_.SaveCheckpoint(options_.checkpoint_path, metadata);
}

StatusOr<RegisteredMsg> Worker::Handle(const StreamReg& msg) {
  // Idempotent by name: re-registration of a known stream is the replay
  // path after coordinator re-adoption, not an error.
  if (!engine_.StreamElementCount(msg.name).ok()) {
    SKIMJOIN_RETURN_IF_ERROR(engine_.RegisterStream(msg).status());
  }
  return RegisteredMsg{msg.name};
}

StatusOr<RegisteredMsg> Worker::Handle(const QueryReg& msg) {
  // Idempotent by name, like stream registration: the coordinator replays
  // every registration when it re-adopts a restarted worker.
  if (query_ids_.count(msg.query_name) == 0) {
    SKIMJOIN_ASSIGN_OR_RETURN(const query::QueryId id,
                              engine_.AddQuery(msg.spec, msg.seed));
    query_ids_[msg.query_name] = id;
  }
  return RegisteredMsg{msg.query_name};
}

StatusOr<RegisteredMsg> Worker::Handle(const RelationReg& msg) {
  // Idempotent by name like stream registration: an ALREADY_EXISTS on the
  // coordinator's re-adoption replay is the expected path, not an error.
  const StatusOr<query::StreamId> id = engine_.RegisterRelation(msg);
  if (!id.ok() && id.status().code() != StatusCode::kAlreadyExists) {
    return id.status();
  }
  return RegisteredMsg{msg.name};
}

StatusOr<HelloReply> Worker::Handle(const RelationUpdateMsg& msg) {
  for (const RelationUpdateMsg::Tuple& tuple : msg.tuples) {
    SKIMJOIN_RETURN_IF_ERROR(
        engine_.UpdateRelation(msg.relation, tuple.attributes, tuple.weight));
  }
  ++epoch_;
  ++batches_since_checkpoint_;
  return Progress();
}

StatusOr<metrics::Snapshot> Worker::Handle(const MetricsRequest&) {
  // Serve() is the engine's writer thread, so the full gauge-refreshing
  // snapshot is safe here.
  return engine_.MetricsSnapshot();
}

StatusOr<EventBatchMsg> Worker::Handle(const EventsRequest& msg) {
  const uint64_t cap =
      msg.max_events == 0
          ? EventLog::kDefaultRingCapacity
          : std::min<uint64_t>(msg.max_events, kMaxWireBatchElements);
  EventBatchMsg batch;
  for (LogEvent& event : EventLog::Global().Tail(cap)) {
    if (event.sequence > msg.after_sequence) {
      batch.events.push_back(std::move(event));
    }
  }
  return batch;
}

StatusOr<RegisteredMsg> Worker::Handle(const TraceControlMsg& msg) {
  if (msg.enable) {
    metrics::TraceRecorder::Global().Enable();
  } else {
    metrics::TraceRecorder::Global().Disable();
  }
  return RegisteredMsg{"trace"};
}

StatusOr<TraceEventsMsg> Worker::Handle(const TraceRequest&) {
  TraceEventsMsg msg;
  msg.events = metrics::TraceRecorder::Global().DrainEvents(&msg.dropped);
  msg.now_micros = metrics::TraceRecorder::Global().NowMicros();
  return msg;
}

StatusOr<HealthReportMsg> Worker::Handle(const HealthRequest&) {
  // Serve() is the engine's writer thread, so the full (estimate-priced,
  // read-only) health pass is safe here. Only the findings travel — the
  // coordinator's fleet doctor aggregates those; profiles and probes stay
  // inspectable worker-side.
  return HealthReportMsg{engine_.HealthReport().findings};
}

StatusOr<HelloReply> Worker::Handle(const UpdateBatchMsg& msg) {
  SKIMJOIN_RETURN_IF_ERROR(engine_.UpdateBatch(
      msg.stream, std::span<const query::StreamUpdate>(msg.updates)));
  ++epoch_;
  ++batches_since_checkpoint_;
  if (options_.checkpoint_every_batches > 0 &&
      !options_.checkpoint_path.empty() &&
      batches_since_checkpoint_ >= options_.checkpoint_every_batches) {
    // The batch is already applied; a failed auto-checkpoint must not turn
    // into a NACK (the coordinator would re-send and double-apply). Log
    // and ack — the next checkpoint attempt covers the same state.
    const Status saved = Checkpoint();
    if (!saved.ok()) {
      EventLog::Global().Emit(LogLevel::kWarn, "checkpoint_failed",
                              {{"shard", options_.shard_name},
                               {"error", saved.ToString()}});
    }
  }
  return Progress();
}

StatusOr<DeltaMsg> Worker::Handle(const PullDeltaMsg& msg) {
  const auto it = query_ids_.find(msg.query_name);
  if (it == query_ids_.end()) {
    return NotFoundError("unknown query '" + msg.query_name + "' on shard " +
                         options_.shard_name);
  }
  DeltaMsg delta;
  delta.query_name = msg.query_name;
  delta.incarnation = incarnation_;
  delta.epoch = epoch_;
  SKIMJOIN_RETURN_IF_ERROR(
      engine_.SerializeQuerySynopsis(it->second, &delta.synopsis));
  return delta;
}

StatusOr<HelloReply> Worker::Handle(const CheckpointMsg&) {
  SKIMJOIN_RETURN_IF_ERROR(Checkpoint());
  return Progress();
}

Status Worker::Serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    // A connection accepted below is NOT in pfds this round — remember how
    // many were polled so the service loop never indexes past the array; a
    // fresh connection's first request is picked up on the next iteration.
    const size_t polled = connections_.size();
    std::vector<pollfd> pfds(polled + 1);
    pfds[0].fd = listener_.fd();
    pfds[0].events = POLLIN;
    for (size_t i = 0; i < polled; ++i) {
      pfds[i + 1].fd = connections_[i].fd();
      pfds[i + 1].events = POLLIN;
    }
    const int ready =
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return IoError(std::string("worker poll failed: ") +
                     std::strerror(errno));
    }
    if (ready == 0) continue;
    if ((pfds[0].revents & POLLIN) != 0) {
      StatusOr<FrameChannel> accepted =
          listener_.Accept(DeadlineAfter(std::chrono::milliseconds(100)));
      if (accepted.ok()) connections_.push_back(*std::move(accepted));
    }
    for (size_t i = 0; i < polled; ++i) {
      if ((pfds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      FrameChannel& conn = connections_[i];
      StatusOr<Frame> request = conn.Receive(DeadlineAfter(options_.io_timeout));
      if (!request.ok()) {
        // A torn frame, injected fault, or peer hangup poisons only this
        // connection; the coordinator reconnects and retries.
        conn.Close();
        continue;
      }
      const Frame reply = Dispatch(
          *request, [this](const auto& msg) { return Handle(msg); });
      const Status sent = conn.Send(reply.type, reply.payload,
                                    DeadlineAfter(options_.io_timeout));
      if (!sent.ok()) conn.Close();
    }
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const FrameChannel& c) { return !c.valid(); }),
        connections_.end());
  }
  return OkStatus();
}

}  // namespace dist
}  // namespace skimjoin
