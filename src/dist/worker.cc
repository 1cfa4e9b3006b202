#include "dist/worker.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
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

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = static_cast<uint64_t>(value);
  return true;
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

Frame MakeFrame(MessageType type, std::string payload) {
  Frame frame;
  frame.type = static_cast<uint32_t>(type);
  frame.payload = std::move(payload);
  return frame;
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

Frame Worker::HelloFrame() const {
  HelloReply reply;
  reply.shard_name = options_.shard_name;
  reply.incarnation = incarnation_;
  reply.epoch = epoch_;
  // The recorder clock stamped here is one half of the fleet clock-offset
  // estimate; the coordinator pairs it with the hello round trip's
  // midpoint on its own recorder clock.
  reply.trace_clock_micros = metrics::TraceRecorder::Global().NowMicros();
  return MakeFrame(MessageType::kHelloReply, EncodeHelloReply(reply));
}

StatusOr<Frame> Worker::HandleRegisterStream(const Frame& request) {
  SKIMJOIN_ASSIGN_OR_RETURN(StreamReg msg, DecodeStreamReg(request.payload));
  // Idempotent by name: re-registration of a known stream is the replay
  // path after coordinator re-adoption, not an error.
  if (!engine_.StreamElementCount(msg.name).ok()) {
    query::StreamSpec spec;
    spec.name = msg.name;
    spec.domain_size = msg.domain_size;
    SKIMJOIN_RETURN_IF_ERROR(engine_.RegisterStream(spec).status());
  }
  return MakeFrame(MessageType::kRegistered, msg.name);
}

StatusOr<Frame> Worker::HandleRegisterQuery(const Frame& request) {
  SKIMJOIN_ASSIGN_OR_RETURN(QueryReg msg, DecodeQueryReg(request.payload));
  // Idempotent by name, like stream registration: the coordinator replays
  // every registration when it re-adopts a restarted worker.
  if (query_ids_.count(msg.query_name) == 0) {
    SKIMJOIN_ASSIGN_OR_RETURN(const query::QueryId id,
                              engine_.AddQuery(msg.spec, msg.seed));
    query_ids_[msg.query_name] = id;
  }
  return MakeFrame(MessageType::kRegistered, msg.query_name);
}

StatusOr<Frame> Worker::HandleRegisterRelation(const Frame& request) {
  SKIMJOIN_ASSIGN_OR_RETURN(RelationReg msg,
                            DecodeRelationReg(request.payload));
  query::RelationSpec spec;
  spec.name = msg.name;
  spec.arity = msg.arity;
  spec.domain_size = msg.domain_size;
  // Idempotent by name like stream registration: an ALREADY_EXISTS on the
  // coordinator's re-adoption replay is the expected path, not an error.
  const StatusOr<query::StreamId> id = engine_.RegisterRelation(spec);
  if (!id.ok() && id.status().code() != StatusCode::kAlreadyExists) {
    return id.status();
  }
  return MakeFrame(MessageType::kRegistered, msg.name);
}

StatusOr<Frame> Worker::HandleUpdateRelation(const Frame& request) {
  SKIMJOIN_ASSIGN_OR_RETURN(RelationUpdateMsg msg,
                            DecodeRelationUpdate(request.payload));
  for (const RelationUpdateMsg::Tuple& tuple : msg.tuples) {
    SKIMJOIN_RETURN_IF_ERROR(
        engine_.UpdateRelation(msg.relation, tuple.attributes, tuple.weight));
  }
  ++epoch_;
  ++batches_since_checkpoint_;
  HelloReply ack;
  ack.shard_name = options_.shard_name;
  ack.incarnation = incarnation_;
  ack.epoch = epoch_;
  return MakeFrame(MessageType::kUpdateAck, EncodeHelloReply(ack));
}

StatusOr<Frame> Worker::HandleMetricsRequest(const Frame& request) {
  (void)request;
  // Serve() is the engine's writer thread, so the full gauge-refreshing
  // snapshot is safe here.
  return MakeFrame(MessageType::kMetricsSnapshot,
                   EncodeMetricsSnapshot(engine_.MetricsSnapshot()));
}

StatusOr<Frame> Worker::HandleEventsRequest(const Frame& request) {
  SKIMJOIN_ASSIGN_OR_RETURN(EventsRequest msg,
                            DecodeEventsRequest(request.payload));
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
  return MakeFrame(MessageType::kEventBatch, EncodeEventBatch(batch));
}

StatusOr<Frame> Worker::HandleTraceControl(const Frame& request) {
  SKIMJOIN_ASSIGN_OR_RETURN(TraceControlMsg msg,
                            DecodeTraceControl(request.payload));
  if (msg.enable) {
    metrics::TraceRecorder::Global().Enable();
  } else {
    metrics::TraceRecorder::Global().Disable();
  }
  return MakeFrame(MessageType::kRegistered, "trace");
}

StatusOr<Frame> Worker::HandleTraceRequest(const Frame& request) {
  (void)request;
  TraceEventsMsg msg;
  msg.events = metrics::TraceRecorder::Global().DrainEvents(&msg.dropped);
  msg.now_micros = metrics::TraceRecorder::Global().NowMicros();
  return MakeFrame(MessageType::kTraceEvents, EncodeTraceEvents(msg));
}

StatusOr<Frame> Worker::HandleHealthRequest(const Frame& request) {
  (void)request;
  // Serve() is the engine's writer thread, so the full (estimate-priced,
  // read-only) health pass is safe here. Only the findings travel — the
  // coordinator's fleet doctor aggregates those; profiles and probes stay
  // inspectable worker-side.
  HealthReportMsg msg;
  msg.findings = engine_.HealthReport().findings;
  return MakeFrame(MessageType::kHealthReport, EncodeHealthReport(msg));
}

StatusOr<Frame> Worker::HandleUpdateBatch(const Frame& request) {
  SKIMJOIN_ASSIGN_OR_RETURN(UpdateBatchMsg msg,
                            DecodeUpdateBatch(request.payload));
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
  HelloReply ack;
  ack.shard_name = options_.shard_name;
  ack.incarnation = incarnation_;
  ack.epoch = epoch_;
  return MakeFrame(MessageType::kUpdateAck, EncodeHelloReply(ack));
}

StatusOr<Frame> Worker::HandlePullDelta(const Frame& request) {
  const std::string name(request.payload);
  SKIMJOIN_RETURN_IF_ERROR(ValidateWireName(name, "query name"));
  const auto it = query_ids_.find(name);
  if (it == query_ids_.end()) {
    return NotFoundError("unknown query '" + name + "' on shard " +
                         options_.shard_name);
  }
  DeltaMsg delta;
  delta.query_name = name;
  delta.incarnation = incarnation_;
  delta.epoch = epoch_;
  SKIMJOIN_RETURN_IF_ERROR(
      engine_.SerializeQuerySynopsis(it->second, &delta.synopsis));
  return MakeFrame(MessageType::kDelta, EncodeDelta(delta));
}

StatusOr<Frame> Worker::Handle(const Frame& request) {
  // Adopt the caller's trace context from the frame header: every span
  // opened while handling this request — including the engine's own ingest
  // and checkpoint spans — becomes a child of the coordinator's RPC span,
  // so a merged fleet trace shows the call fanning into this shard.
  metrics::ScopedTraceContext adopt(metrics::TraceContext{
      request.trace_id, request.span_id, request.parent_span_id});
  switch (static_cast<MessageType>(request.type)) {
    case MessageType::kHello:
    case MessageType::kPing:
      return HelloFrame();
    case MessageType::kRegisterStream:
      return HandleRegisterStream(request);
    case MessageType::kRegisterQuery:
      return HandleRegisterQuery(request);
    case MessageType::kRegisterRelation:
      return HandleRegisterRelation(request);
    case MessageType::kUpdateBatch: {
      metrics::TraceSpan span("worker.ingest", "dist");
      return HandleUpdateBatch(request);
    }
    case MessageType::kUpdateRelation: {
      metrics::TraceSpan span("worker.ingest_relation", "dist");
      return HandleUpdateRelation(request);
    }
    case MessageType::kPullDelta: {
      metrics::TraceSpan span("worker.delta", "dist");
      return HandlePullDelta(request);
    }
    case MessageType::kMetricsRequest:
      return HandleMetricsRequest(request);
    case MessageType::kEventsRequest:
      return HandleEventsRequest(request);
    case MessageType::kTraceControl:
      return HandleTraceControl(request);
    case MessageType::kTraceRequest:
      return HandleTraceRequest(request);
    case MessageType::kHealthRequest:
      return HandleHealthRequest(request);
    case MessageType::kCheckpoint: {
      metrics::TraceSpan span("worker.checkpoint", "dist");
      SKIMJOIN_RETURN_IF_ERROR(Checkpoint());
      HelloReply ack;
      ack.shard_name = options_.shard_name;
      ack.incarnation = incarnation_;
      ack.epoch = epoch_;
      return MakeFrame(MessageType::kCheckpointAck, EncodeHelloReply(ack));
    }
    default:
      return InvalidArgumentError("unknown message type " +
                                  std::to_string(request.type));
  }
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
      StatusOr<Frame> reply = Handle(*request);
      Frame out = reply.ok() ? *std::move(reply)
                             : MakeFrame(MessageType::kError,
                                         EncodeError(reply.status()));
      const Status sent = conn.Send(out.type, out.payload,
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
