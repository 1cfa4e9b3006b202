// Message vocabulary of the coordinator↔worker protocol, riding on
// dist/frame.h. Payloads are whitespace-tokenized text (the same
// self-describing style as the sketch serializers), each with a typed
// encoder and a hardened decoder: decoders validate every token, cap every
// declared count BEFORE allocating, and always return a Status — a fuzzed
// or truncated payload can never crash or over-allocate the receiver
// (tests/serialization_fuzz_test.cc sweeps every byte).
//
// Exchange shape: the coordinator opens a channel, sends kHello, and the
// worker replies kHelloReply carrying its shard name, INCARNATION (bumped
// each restart-from-checkpoint), and EPOCH (update batches applied). Every
// later request gets exactly one reply — the matching *Ack/answer type, or
// kError carrying a Status. The incarnation is the re-adoption handshake:
// when the coordinator sees a new incarnation it replays its recorded
// registrations (all idempotent on the worker) before trusting the shard
// again, and flags the shard's answers as behind until the worker's epoch
// catches back up to the last acknowledged one.

#ifndef SKIMJOIN_DIST_PROTOCOL_H_
#define SKIMJOIN_DIST_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
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
  // Chain-join routing (acked by kRegistered / kUpdateAck like their
  // stream-shaped counterparts). 16 carried per-kind chain registrations;
  // retired in favour of kRegisterQuery and never reused.
  kRegisterRelation = 15,
  kUpdateRelation = 17,
  // Fleet telemetry plane: the coordinator pulls each worker's metrics
  // registry snapshot, event-log tail, and trace buffer on demand.
  kMetricsRequest = 18,   // empty payload -> kMetricsSnapshot
  kMetricsSnapshot = 19,
  kEventsRequest = 20,    // EventsRequest -> kEventBatch
  kEventBatch = 21,
  kTraceControl = 22,     // TraceControlMsg -> kRegistered
  kTraceRequest = 23,     // empty payload -> kTraceEvents
  kTraceEvents = 24,
  // Fleet doctor: the coordinator pulls each worker's rule-based health
  // findings (Engine::HealthReport run worker-side; findings only).
  kHealthRequest = 25,    // empty payload -> kHealthReport
  kHealthReport = 26,
  // Any query's registration (QueryReg), acked by kRegistered.
  kRegisterQuery = 27,
};

/// Largest element count one kUpdateBatch may declare; validated before
/// any allocation on the receive path.
constexpr uint64_t kMaxWireBatchElements = uint64_t{1} << 20;

/// kHelloReply / kUpdateAck / kCheckpointAck payload: the worker's
/// identity and progress marker.
struct HelloReply {
  std::string shard_name;
  uint64_t incarnation = 0;
  uint64_t epoch = 0;
  /// The worker's TraceRecorder::NowMicros() when the reply was encoded.
  /// Required on decode: it shipped with the SKJ2 frame header, the only
  /// frame the frame layer accepts. The coordinator subtracts it from the
  /// hello round trip's midpoint on its own recorder clock to estimate the
  /// per-shard clock offset that aligns a merged fleet trace.
  uint64_t trace_clock_micros = 0;
};

/// kRegisterStream payload.
struct StreamReg {
  std::string name;
  uint64_t domain_size = 0;
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
struct RelationReg {
  std::string name;
  uint64_t arity = 1;
  uint64_t domain_size = 0;
};

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

/// kEventsRequest payload: pull up to `max_events` of the worker's event
/// log tail, restricted to events with sequence > `after_sequence` so a
/// polling coordinator never re-ingests what it already scraped.
struct EventsRequest {
  uint64_t max_events = 0;
  uint64_t after_sequence = 0;
};

/// kEventBatch payload: the matching tail slice, oldest first. Free-text
/// fields (event names, field keys/values) travel as length-prefixed
/// blobs, so arbitrary bytes can't break the tokenized framing.
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
/// assigns on receipt). Free text — subjects, rules, messages — travels as
/// length-prefixed blobs. Profiles and probes stay worker-side; findings
/// are the fleet-doctor currency.
struct HealthReportMsg {
  std::vector<query::HealthFinding> findings;
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

std::string EncodeHelloReply(const HelloReply& msg);
StatusOr<HelloReply> DecodeHelloReply(std::string_view payload);

std::string EncodeStreamReg(const StreamReg& msg);
StatusOr<StreamReg> DecodeStreamReg(std::string_view payload);

std::string EncodeQueryReg(const QueryReg& msg);
StatusOr<QueryReg> DecodeQueryReg(std::string_view payload);

std::string EncodeUpdateBatch(const UpdateBatchMsg& msg);
StatusOr<UpdateBatchMsg> DecodeUpdateBatch(std::string_view payload);

std::string EncodeDelta(const DeltaMsg& msg);
StatusOr<DeltaMsg> DecodeDelta(std::string_view payload);

std::string EncodeRelationReg(const RelationReg& msg);
StatusOr<RelationReg> DecodeRelationReg(std::string_view payload);

std::string EncodeRelationUpdate(const RelationUpdateMsg& msg);
StatusOr<RelationUpdateMsg> DecodeRelationUpdate(std::string_view payload);

/// kMetricsSnapshot: a whole metrics::Snapshot (help strings excluded —
/// they are registration-site documentation, re-attached by the receiver).
/// Metric names travel as length-prefixed blobs; doubles as IEEE-754 bit
/// patterns; histogram buckets sparsely as (index, count) pairs.
std::string EncodeMetricsSnapshot(const metrics::Snapshot& snapshot);
StatusOr<metrics::Snapshot> DecodeMetricsSnapshot(std::string_view payload);

std::string EncodeEventsRequest(const EventsRequest& msg);
StatusOr<EventsRequest> DecodeEventsRequest(std::string_view payload);

std::string EncodeEventBatch(const EventBatchMsg& msg);
StatusOr<EventBatchMsg> DecodeEventBatch(std::string_view payload);

std::string EncodeTraceControl(const TraceControlMsg& msg);
StatusOr<TraceControlMsg> DecodeTraceControl(std::string_view payload);

std::string EncodeTraceEvents(const TraceEventsMsg& msg);
StatusOr<TraceEventsMsg> DecodeTraceEvents(std::string_view payload);

std::string EncodeHealthReport(const HealthReportMsg& msg);
StatusOr<HealthReportMsg> DecodeHealthReport(std::string_view payload);

/// kError payload: "<code> <message...>". DecodeError NEVER yields an OK
/// status — a mangled error payload decodes to an INTERNAL status
/// describing the mangling, so a fault can't masquerade as success.
std::string EncodeError(const Status& status);
Status DecodeError(std::string_view payload);

/// One round trip: sends `type` + `payload`, receives exactly one reply
/// frame before `deadline`. A kError reply is decoded and returned as this
/// call's status; any other reply comes back as the frame. The calling
/// thread's CurrentTraceContext() (if any) is stamped into the outgoing
/// frame header, so a traced coordinator call fans its trace out to the
/// worker for free.
StatusOr<Frame> Call(FrameChannel& channel, MessageType type,
                     std::string_view payload, Deadline deadline);

/// Protocol names ("name" tokens on the wire): nonempty, at most 256
/// bytes, no whitespace. Shared by both ends so a hostile name can't break
/// the tokenized framing.
Status ValidateWireName(std::string_view name, const char* what);

}  // namespace dist
}  // namespace skimjoin

#endif  // SKIMJOIN_DIST_PROTOCOL_H_
