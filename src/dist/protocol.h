// Message vocabulary of the coordinator↔worker protocol, riding on
// dist/frame.h: the payload structs, the one codec that writes and reads
// them, and the message table that pairs every request with its reply.
//
// Payload grammar. Each payload struct has one field description
// (`Fields` in protocol.cc), which one writer and one reader run:
//   * fields are separated by exactly one space, with no leading or
//     trailing whitespace;
//   * a name (shard, stream, relation, query) is a whitespace-free token
//     of 1..256 bytes (ValidateWireName);
//   * free text (metric names, event fields, span names, health findings)
//     is `<len>:<bytes>`, the length checked against the bytes left before
//     anything is copied;
//   * integers are decimal; an unsigned field carries no sign, a signed
//     one only a '-';
//   * telemetry doubles travel as their IEEE-754 bit pattern, an unsigned
//     integer, so they arrive bit-exact (NaN included);
//   * a list is its count, then its elements; the count is capped by
//     kMaxWireBatchElements and by the bytes left before anything is
//     reserved;
//   * a delta's synopsis is `<len>\n<bytes>`, exactly `len` bytes closing
//     the payload;
//   * a query spec is query/spec_codec's record, closing the payload;
//   * an error is `<code> <text>`, the text read up to its first newline.
// The reader treats its input as untrusted: the first malformed field
// stops it, and every decode returns a Status — a fuzzed or truncated
// payload can never crash or over-allocate the receiver
// (tests/dist_protocol_test.cc sweeps every message type). A mangled
// error payload decodes to an INTERNAL status, never to OK.
//
// Exchange shape: the coordinator opens a channel, sends kHello, and the
// worker replies kHelloReply carrying its shard name, INCARNATION (bumped
// each restart-from-checkpoint), and EPOCH (update batches applied). Every
// later request gets exactly one reply — the type kMessages pairs with it,
// or kError carrying a Status. The incarnation is the re-adoption
// handshake: when the coordinator sees a new incarnation it replays its
// recorded registrations (all idempotent on the worker) before trusting
// the shard again, and flags the shard's answers as behind until the
// worker's epoch catches back up to the last acknowledged one.
//
// Adding a message: append its MessageType; write its payload struct, the
// struct's `Fields` and its line in protocol.cc's SKIMJOIN_WIRE_PAYLOAD
// list; add one kMessages row; give the worker a `Handle` overload.

#ifndef SKIMJOIN_DIST_PROTOCOL_H_
#define SKIMJOIN_DIST_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "dist/frame.h"
#include "query/engine.h"
#include "query/query.h"
#include "util/event_log.h"
#include "util/metrics.h"
#include "util/status.h"

namespace skimjoin {
namespace dist {

/// Frame types. Values are the wire contract — append, never renumber.
enum class MessageType : uint32_t {
  kHello = 1,
  kHelloReply = 2,
  kRegisterStream = 3,
  // 4 and 5 carried per-kind join and frequency registrations; retired in
  // favour of kRegisterQuery and never reused.
  kRegistered = 6,
  kUpdateBatch = 7,
  kUpdateAck = 8,
  kPullDelta = 9,
  kDelta = 10,
  kCheckpoint = 11,
  kCheckpointAck = 12,
  kPing = 13,
  kError = 14,
  // Chain-join routing. 16 carried per-kind chain registrations; retired
  // in favour of kRegisterQuery and never reused.
  kRegisterRelation = 15,
  kUpdateRelation = 17,
  // Fleet telemetry plane: the coordinator pulls each worker's metrics
  // registry snapshot, event-log tail, and trace buffer on demand.
  kMetricsRequest = 18,
  kMetricsSnapshot = 19,
  kEventsRequest = 20,
  kEventBatch = 21,
  kTraceControl = 22,
  kTraceRequest = 23,
  kTraceEvents = 24,
  // Fleet doctor: the coordinator pulls each worker's rule-based health
  // findings (Engine::HealthReport run worker-side; findings only).
  kHealthRequest = 25,
  kHealthReport = 26,
  // Any query's registration (QueryReg).
  kRegisterQuery = 27,
};

/// Largest element count one list may declare; validated before any
/// allocation on the receive path.
constexpr uint64_t kMaxWireBatchElements = uint64_t{1} << 20;

/// The payload of a request without fields (kHello, kPing, kCheckpoint
/// and the telemetry pulls). One struct per type, so each request has its
/// own handler.
template <MessageType kType>
struct NoFields {};
using HelloMsg = NoFields<MessageType::kHello>;
using PingMsg = NoFields<MessageType::kPing>;
using CheckpointMsg = NoFields<MessageType::kCheckpoint>;
using MetricsRequest = NoFields<MessageType::kMetricsRequest>;
using TraceRequest = NoFields<MessageType::kTraceRequest>;
using HealthRequest = NoFields<MessageType::kHealthRequest>;

/// kHelloReply / kUpdateAck / kCheckpointAck payload: the worker's
/// identity and progress marker.
struct HelloReply {
  std::string shard_name;
  uint64_t incarnation = 0;
  uint64_t epoch = 0;
  /// The worker's TraceRecorder::NowMicros() when it answered a hello or
  /// ping (0 in acks). The coordinator subtracts it from the hello round
  /// trip's midpoint on its own recorder clock to estimate the per-shard
  /// clock offset that aligns a merged fleet trace.
  uint64_t trace_clock_micros = 0;
};

/// kRegisterStream payload: the spec the engine registers.
using StreamReg = query::StreamSpec;

/// kRegistered payload: the name of what was registered ("trace" for
/// kTraceControl).
struct RegisteredMsg {
  std::string name;
};

/// kRegisterQuery payload: "<query name> <seed> <kind> <spec fields...>",
/// the spec written as the same record a checkpoint manifest stores
/// (query/spec_codec.h). Spec and seed travel verbatim — predicates and
/// SUM inputs included — so every worker builds synopses bit-compatible
/// with the coordinator's merge accumulator (same spec, same seed ⇒ same
/// hash families).
struct QueryReg {
  std::string query_name;
  uint64_t seed = 0;
  query::QuerySpec spec;
};

/// kUpdateBatch payload: a shard-routed slice of one logical batch.
struct UpdateBatchMsg {
  std::string stream;
  std::vector<query::StreamUpdate> updates;
};

/// kRegisterRelation payload: a multi-attribute relation for chain joins.
using RelationReg = query::RelationSpec;

/// kUpdateRelation payload: a shard-routed slice of tuples for one
/// relation. Every tuple carries exactly `arity` attribute values.
struct RelationUpdateMsg {
  struct Tuple {
    std::vector<uint64_t> attributes;
    int64_t weight = 1;
  };

  std::string relation;
  uint64_t arity = 0;
  std::vector<Tuple> tuples;
};

/// kPullDelta payload: the query's wire name.
struct PullDeltaMsg {
  std::string query_name;
};

/// kDelta payload: one query's full serialized synopsis, stamped with the
/// worker's incarnation and epoch. Deltas are FULL STATE, not increments —
/// the coordinator replaces its cached copy wholesale, which is what makes
/// double-merging a replayed delta structurally impossible.
struct DeltaMsg {
  std::string query_name;
  uint64_t incarnation = 0;
  uint64_t epoch = 0;
  std::string synopsis;
};

/// kEventsRequest payload: pull up to `max_events` of the worker's event
/// log tail, restricted to events with sequence > `after_sequence` so a
/// polling coordinator never re-ingests what it already scraped.
struct EventsRequest {
  uint64_t max_events = 0;
  uint64_t after_sequence = 0;
};

/// kEventBatch payload: the matching tail slice, oldest first.
struct EventBatchMsg {
  std::vector<LogEvent> events;
};

/// kTraceControl payload: flips the worker's TraceRecorder on or off.
struct TraceControlMsg {
  bool enable = false;
};

/// kTraceEvents payload: the worker's drained trace buffer plus its
/// recorder clock at encode time (`now_micros`), which lets the receiver
/// refine the hello-handshake clock-offset estimate.
struct TraceEventsMsg {
  uint64_t dropped = 0;
  uint64_t now_micros = 0;
  std::vector<metrics::TraceEvent> events;
};

/// kHealthReport payload: the worker engine's rule-based health findings
/// (query::HealthFinding minus the shard label, which the coordinator
/// assigns on receipt). Profiles and probes stay worker-side; findings
/// are the fleet-doctor currency.
struct HealthReportMsg {
  std::vector<query::HealthFinding> findings;
};

/// The codec of every payload struct (kMessages' requests and replies, and
/// metrics::Snapshot for kMetricsSnapshot): Encode writes the struct's
/// fields, Decode reads them back — INVALID_ARGUMENT for anything the
/// writer could not have produced.
template <typename Msg>
std::string Encode(const Msg& msg);
template <typename Msg>
StatusOr<Msg> Decode(std::string_view payload);

/// The codec under each payload's own name.
inline constexpr auto& EncodeHelloReply = Encode<HelloReply>;
inline constexpr auto& DecodeHelloReply = Decode<HelloReply>;
inline constexpr auto& EncodeStreamReg = Encode<StreamReg>;
inline constexpr auto& DecodeStreamReg = Decode<StreamReg>;
inline constexpr auto& EncodeQueryReg = Encode<QueryReg>;
inline constexpr auto& DecodeQueryReg = Decode<QueryReg>;
inline constexpr auto& EncodeUpdateBatch = Encode<UpdateBatchMsg>;
inline constexpr auto& DecodeUpdateBatch = Decode<UpdateBatchMsg>;
inline constexpr auto& EncodeDelta = Encode<DeltaMsg>;
inline constexpr auto& DecodeDelta = Decode<DeltaMsg>;
inline constexpr auto& EncodeRelationReg = Encode<RelationReg>;
inline constexpr auto& DecodeRelationReg = Decode<RelationReg>;
inline constexpr auto& EncodeRelationUpdate = Encode<RelationUpdateMsg>;
inline constexpr auto& DecodeRelationUpdate = Decode<RelationUpdateMsg>;
inline constexpr auto& EncodeMetricsSnapshot = Encode<metrics::Snapshot>;
inline constexpr auto& DecodeMetricsSnapshot = Decode<metrics::Snapshot>;
inline constexpr auto& EncodeEventsRequest = Encode<EventsRequest>;
inline constexpr auto& DecodeEventsRequest = Decode<EventsRequest>;
inline constexpr auto& EncodeEventBatch = Encode<EventBatchMsg>;
inline constexpr auto& DecodeEventBatch = Decode<EventBatchMsg>;
inline constexpr auto& EncodeTraceControl = Encode<TraceControlMsg>;
inline constexpr auto& DecodeTraceControl = Decode<TraceControlMsg>;
inline constexpr auto& EncodeTraceEvents = Encode<TraceEventsMsg>;
inline constexpr auto& DecodeTraceEvents = Decode<TraceEventsMsg>;
inline constexpr auto& EncodeHealthReport = Encode<HealthReportMsg>;
inline constexpr auto& DecodeHealthReport = Decode<HealthReportMsg>;

/// kError payload. DecodeError NEVER yields an OK status — a mangled error
/// payload decodes to an INTERNAL status describing the mangling, so a
/// fault can't masquerade as success.
std::string EncodeError(const Status& status);
Status DecodeError(std::string_view payload);

/// Protocol names ("name" tokens on the wire): nonempty, at most 256
/// bytes, no whitespace. Shared by both ends so a hostile name can't break
/// the tokenized framing.
Status ValidateWireName(std::string_view name, const char* what);

/// One round trip: sends `type` + `payload`, receives exactly one reply
/// frame before `deadline`. A kError reply is decoded and returned as this
/// call's status; any other reply comes back as the frame. The calling
/// thread's CurrentTraceContext() (if any) is stamped into the outgoing
/// frame header, so a traced coordinator call fans its trace out to the
/// worker for free.
StatusOr<Frame> Call(FrameChannel& channel, MessageType type,
                     std::string_view payload, Deadline deadline);

/// One row of the message table.
template <typename RequestMsg, typename ReplyMsg>
struct Exchange {
  using Request = RequestMsg;
  using Reply = ReplyMsg;
  MessageType request;
  MessageType reply;
  /// The coordinator's `dist.rpc.<name>.latency_ns` histogram.
  const char* name;
  /// The span the worker opens around its handler, if any.
  const char* span = nullptr;
};

/// The message table: each request type with its payload struct, the
/// reply type and payload struct that answer it, its RPC metric name and
/// its worker span. kError may answer any request.
inline constexpr std::tuple kMessages = [] {
  using enum MessageType;
  return std::tuple{
      Exchange<HelloMsg, HelloReply>{kHello, kHelloReply, "hello"},
      Exchange<PingMsg, HelloReply>{kPing, kHelloReply, "ping"},
      Exchange<StreamReg, RegisteredMsg>{kRegisterStream, kRegistered,
                                         "register_stream"},
      Exchange<QueryReg, RegisteredMsg>{kRegisterQuery, kRegistered,
                                        "register_query"},
      Exchange<RelationReg, RegisteredMsg>{kRegisterRelation, kRegistered,
                                           "register_relation"},
      Exchange<UpdateBatchMsg, HelloReply>{kUpdateBatch, kUpdateAck,
                                           "update_batch", "worker.ingest"},
      Exchange<RelationUpdateMsg, HelloReply>{kUpdateRelation, kUpdateAck,
                                              "update_relation",
                                              "worker.ingest_relation"},
      Exchange<PullDeltaMsg, DeltaMsg>{kPullDelta, kDelta, "pull_delta",
                                       "worker.delta"},
      Exchange<CheckpointMsg, HelloReply>{kCheckpoint, kCheckpointAck,
                                          "checkpoint", "worker.checkpoint"},
      Exchange<MetricsRequest, metrics::Snapshot>{
          kMetricsRequest, kMetricsSnapshot, "metrics_request"},
      Exchange<EventsRequest, EventBatchMsg>{kEventsRequest, kEventBatch,
                                             "events_request"},
      Exchange<TraceControlMsg, RegisteredMsg>{kTraceControl, kRegistered,
                                               "trace_control"},
      Exchange<TraceRequest, TraceEventsMsg>{kTraceRequest, kTraceEvents,
                                             "trace_request"},
      Exchange<HealthRequest, HealthReportMsg>{kHealthRequest, kHealthReport,
                                               "health_request"},
  };
}();

/// The kMessages row whose request payload is `Request`.
template <typename Request, size_t I = 0>
constexpr const auto& RowOf() {
  using Row = std::tuple_element_t<I, std::remove_const_t<decltype(kMessages)>>;
  if constexpr (std::is_same_v<typename Row::Request, Request>) {
    return std::get<I>(kMessages);
  } else {
    return RowOf<Request, I + 1>();
  }
}

/// The reply payload struct the table pairs with `Request`.
template <typename Request>
using ReplyTo = typename std::remove_cvref_t<decltype(RowOf<Request>())>::Reply;

/// The reply to `Request` that `frame` carries: INVALID_ARGUMENT for a
/// frame of any other type or a payload that does not decode.
template <typename Request>
StatusOr<ReplyTo<Request>> DecodeReply(const Frame& frame) {
  constexpr const auto& row = RowOf<Request>();
  if (frame.type != static_cast<uint32_t>(row.reply)) {
    return InvalidArgumentError(std::string(row.name) +
                                " answered by message type " +
                                std::to_string(frame.type));
  }
  return Decode<ReplyTo<Request>>(frame.payload);
}

/// Call, typed by the table: sends `request` under its type and returns
/// its decoded reply.
template <typename Request>
StatusOr<ReplyTo<Request>> Call(FrameChannel& channel, const Request& request,
                                Deadline deadline) {
  SKIMJOIN_ASSIGN_OR_RETURN(
      const Frame reply,
      Call(channel, RowOf<Request>().request, Encode(request), deadline));
  return DecodeReply<Request>(reply);
}

/// Answers one request frame by the table: decodes its payload, calls
/// `handle(request)` inside the row's span and encodes what it returns as
/// the row's reply frame. An unknown type, an undecodable payload or a
/// handler error comes back as a kError frame.
///
/// The handler runs in the caller's trace context from the frame header:
/// every span it opens — the engine's own ingest and checkpoint spans
/// included — becomes a child of the caller's RPC span, so a merged fleet
/// trace shows the call fanning into this shard.
template <typename Handle>
Frame Dispatch(const Frame& request, Handle&& handle) {
  metrics::ScopedTraceContext adopt(metrics::TraceContext{
      request.trace_id, request.span_id, request.parent_span_id});
  StatusOr<Frame> reply = InvalidArgumentError(
      "unknown message type " + std::to_string(request.type));
  const auto serve = [&](const auto& row) -> StatusOr<Frame> {
    using Row = std::remove_cvref_t<decltype(row)>;
    std::optional<metrics::TraceSpan> span;
    if (row.span != nullptr) span.emplace(row.span, "dist");
    SKIMJOIN_ASSIGN_OR_RETURN(const typename Row::Request msg,
                              Decode<typename Row::Request>(request.payload));
    SKIMJOIN_ASSIGN_OR_RETURN(const typename Row::Reply answer, handle(msg));
    return Frame{static_cast<uint32_t>(row.reply), Encode(answer)};
  };
  std::apply(
      [&](const auto&... rows) {
        ((request.type == static_cast<uint32_t>(rows.request) &&
          (reply = serve(rows), true)) ||
         ...);
      },
      kMessages);
  if (reply.ok()) return *std::move(reply);
  return Frame{static_cast<uint32_t>(MessageType::kError),
               EncodeError(reply.status())};
}

}  // namespace dist
}  // namespace skimjoin

#endif  // SKIMJOIN_DIST_PROTOCOL_H_
