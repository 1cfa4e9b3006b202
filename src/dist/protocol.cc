#include "dist/protocol.h"

#include <cctype>
#include <charconv>
#include <cstring>
#include <sstream>
#include <utility>

#include "query/spec_codec.h"
#include "util/histogram.h"

namespace skimjoin {
namespace dist {

namespace {

// Telemetry doubles (gauges, histogram sums and bounds) cross the wire as
// their IEEE-754 bit pattern (decimal u64), so they arrive bit-exact.
// Query-spec doubles use the spec codec's max_digits10 text instead, which
// round-trips exactly too.
uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Status Malformed(const char* what) {
  return InvalidArgumentError(std::string("malformed ") + what + " payload");
}

// Reads one whitespace-delimited token as the requested type; false on
// exhaustion or a non-numeric token.
bool ReadToken(std::istringstream& in, uint64_t* out) {
  return static_cast<bool>(in >> *out);
}
bool ReadToken(std::istringstream& in, int64_t* out) {
  return static_cast<bool>(in >> *out);
}
bool ReadToken(std::istringstream& in, std::string* out) {
  return static_cast<bool>(in >> *out);
}

// A payload is fully consumed when only trailing whitespace remains;
// anything else is a framing bug or tampering.
Status ExpectExhausted(std::istringstream& in, const char* what) {
  std::string extra;
  if (in >> extra) {
    return InvalidArgumentError(std::string(what) +
                                " payload has trailing tokens");
  }
  return OkStatus();
}

// Telemetry payloads carry free text (metric names with label blocks,
// event names, field values), which whitespace tokenization can't frame.
// They use a cursor grammar instead: decimal integers separated by single
// spaces, and strings as length-prefixed blobs `<len>:<bytes>` whose bytes
// are taken raw. The declared blob length is checked against the bytes
// actually remaining BEFORE any copy, so a lying length can't over-read or
// over-allocate; the same bound makes every element-count cap of the form
// `count <= remaining bytes` airtight.
class WireCursor {
 public:
  explicit WireCursor(std::string_view data) : rest_(data) {}

  bool U64(uint64_t* out) {
    SkipSpace();
    const auto [ptr, ec] =
        std::from_chars(rest_.data(), rest_.data() + rest_.size(), *out);
    if (ec != std::errc()) return false;
    rest_.remove_prefix(static_cast<size_t>(ptr - rest_.data()));
    return true;
  }

  bool I64(int64_t* out) {
    SkipSpace();
    const auto [ptr, ec] =
        std::from_chars(rest_.data(), rest_.data() + rest_.size(), *out);
    if (ec != std::errc()) return false;
    rest_.remove_prefix(static_cast<size_t>(ptr - rest_.data()));
    return true;
  }

  bool Blob(std::string* out) {
    uint64_t len = 0;
    if (!U64(&len)) return false;
    if (rest_.empty() || rest_.front() != ':') return false;
    rest_.remove_prefix(1);
    if (len > rest_.size()) return false;  // caps allocation at what arrived
    out->assign(rest_.substr(0, len));
    rest_.remove_prefix(len);
    return true;
  }

  /// Remaining un-parsed bytes — the bound for declared element counts.
  size_t remaining() const { return rest_.size(); }

  bool AtEnd() {
    SkipSpace();
    return rest_.empty();
  }

 private:
  void SkipSpace() {
    while (!rest_.empty() &&
           std::isspace(static_cast<unsigned char>(rest_.front())) != 0) {
      rest_.remove_prefix(1);
    }
  }

  std::string_view rest_;
};

void AppendBlob(std::ostringstream& out, std::string_view bytes) {
  out << bytes.size() << ':' << bytes;
}

}  // namespace

Status ValidateWireName(std::string_view name, const char* what) {
  if (name.empty() || name.size() > 256) {
    return InvalidArgumentError(std::string(what) +
                                " must be 1..256 bytes long");
  }
  for (const char c : name) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      return InvalidArgumentError(std::string(what) +
                                  " must not contain whitespace");
    }
  }
  return OkStatus();
}

std::string EncodeHelloReply(const HelloReply& msg) {
  std::ostringstream out;
  out << msg.shard_name << ' ' << msg.incarnation << ' ' << msg.epoch << ' '
      << msg.trace_clock_micros;
  return out.str();
}

StatusOr<HelloReply> DecodeHelloReply(std::string_view payload) {
  std::istringstream in{std::string(payload)};
  HelloReply msg;
  std::string clock_token;
  if (!ReadToken(in, &msg.shard_name) || !ReadToken(in, &msg.incarnation) ||
      !ReadToken(in, &msg.epoch) || !ReadToken(in, &clock_token)) {
    return Malformed("hello-reply");
  }
  SKIMJOIN_RETURN_IF_ERROR(ValidateWireName(msg.shard_name, "shard name"));
  // The trace clock must be a clean u64.
  const auto [ptr, ec] =
      std::from_chars(clock_token.data(),
                      clock_token.data() + clock_token.size(),
                      msg.trace_clock_micros);
  if (ec != std::errc() || ptr != clock_token.data() + clock_token.size()) {
    return Malformed("hello-reply");
  }
  SKIMJOIN_RETURN_IF_ERROR(ExpectExhausted(in, "hello-reply"));
  return msg;
}

std::string EncodeStreamReg(const StreamReg& msg) {
  std::ostringstream out;
  out << msg.name << ' ' << msg.domain_size;
  return out.str();
}

StatusOr<StreamReg> DecodeStreamReg(std::string_view payload) {
  std::istringstream in{std::string(payload)};
  StreamReg msg;
  if (!ReadToken(in, &msg.name) || !ReadToken(in, &msg.domain_size)) {
    return Malformed("stream-registration");
  }
  SKIMJOIN_RETURN_IF_ERROR(ValidateWireName(msg.name, "stream name"));
  SKIMJOIN_RETURN_IF_ERROR(ExpectExhausted(in, "stream-registration"));
  return msg;
}

std::string EncodeQueryReg(const QueryReg& msg) {
  std::ostringstream out;
  out << msg.query_name << ' ' << msg.seed << ' '
      << query::QueryKindName(msg.spec) << ' ';
  query::WriteQuerySpec(out, msg.spec);
  return out.str();
}

StatusOr<QueryReg> DecodeQueryReg(std::string_view payload) {
  std::istringstream in{std::string(payload)};
  QueryReg msg;
  std::string kind;
  if (!ReadToken(in, &msg.query_name) || !ReadToken(in, &msg.seed) ||
      !ReadToken(in, &kind)) {
    return Malformed("query-registration");
  }
  SKIMJOIN_RETURN_IF_ERROR(ValidateWireName(msg.query_name, "query name"));
  SKIMJOIN_ASSIGN_OR_RETURN(msg.spec, query::ReadQuerySpec(kind, in));
  SKIMJOIN_RETURN_IF_ERROR(ExpectExhausted(in, "query-registration"));
  return msg;
}

std::string EncodeUpdateBatch(const UpdateBatchMsg& msg) {
  std::ostringstream out;
  out << msg.stream << ' ' << msg.updates.size();
  for (const query::StreamUpdate& update : msg.updates) {
    out << ' ' << update.value << ' ' << update.count << ' ' << update.measure;
  }
  return out.str();
}

StatusOr<UpdateBatchMsg> DecodeUpdateBatch(std::string_view payload) {
  std::istringstream in{std::string(payload)};
  UpdateBatchMsg msg;
  uint64_t count = 0;
  if (!ReadToken(in, &msg.stream) || !ReadToken(in, &count)) {
    return Malformed("update-batch");
  }
  SKIMJOIN_RETURN_IF_ERROR(ValidateWireName(msg.stream, "stream name"));
  if (count > kMaxWireBatchElements) {
    return InvalidArgumentError(
        "update-batch declares " + std::to_string(count) +
        " elements, above the " + std::to_string(kMaxWireBatchElements) +
        " cap");
  }
  // The declared count is additionally sanity-checked against the payload
  // size — each element needs at least 6 bytes ("v c m ") — so a lying
  // header can't even reserve beyond ~payload/6 entries.
  if (count > payload.size()) {
    return Malformed("update-batch");
  }
  msg.updates.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    query::StreamUpdate update;
    if (!ReadToken(in, &update.value) || !ReadToken(in, &update.count) ||
        !ReadToken(in, &update.measure)) {
      return Malformed("update-batch");
    }
    msg.updates.push_back(update);
  }
  SKIMJOIN_RETURN_IF_ERROR(ExpectExhausted(in, "update-batch"));
  return msg;
}

std::string EncodeDelta(const DeltaMsg& msg) {
  std::ostringstream out;
  out << msg.query_name << ' ' << msg.incarnation << ' ' << msg.epoch << ' '
      << msg.synopsis.size() << '\n'
      << msg.synopsis;
  return out.str();
}

StatusOr<DeltaMsg> DecodeDelta(std::string_view payload) {
  const size_t newline = payload.find('\n');
  if (newline == std::string_view::npos) return Malformed("delta");
  std::istringstream in{std::string(payload.substr(0, newline))};
  DeltaMsg msg;
  uint64_t declared_len = 0;
  if (!ReadToken(in, &msg.query_name) || !ReadToken(in, &msg.incarnation) ||
      !ReadToken(in, &msg.epoch) || !ReadToken(in, &declared_len)) {
    return Malformed("delta");
  }
  SKIMJOIN_RETURN_IF_ERROR(ValidateWireName(msg.query_name, "query name"));
  SKIMJOIN_RETURN_IF_ERROR(ExpectExhausted(in, "delta"));
  const std::string_view body = payload.substr(newline + 1);
  // Exact-length match: a truncated or padded synopsis block is a framing
  // error, and the declared length can never exceed what actually arrived
  // (the frame layer already capped that), so no speculative allocation.
  if (declared_len != body.size()) {
    return InvalidArgumentError("delta synopsis length mismatch: declared " +
                                std::to_string(declared_len) + ", got " +
                                std::to_string(body.size()));
  }
  msg.synopsis.assign(body);
  return msg;
}

std::string EncodeRelationReg(const RelationReg& msg) {
  std::ostringstream out;
  out << msg.name << ' ' << msg.arity << ' ' << msg.domain_size;
  return out.str();
}

StatusOr<RelationReg> DecodeRelationReg(std::string_view payload) {
  std::istringstream in{std::string(payload)};
  RelationReg msg;
  if (!ReadToken(in, &msg.name) || !ReadToken(in, &msg.arity) ||
      !ReadToken(in, &msg.domain_size)) {
    return Malformed("relation-registration");
  }
  SKIMJOIN_RETURN_IF_ERROR(ValidateWireName(msg.name, "relation name"));
  SKIMJOIN_RETURN_IF_ERROR(ExpectExhausted(in, "relation-registration"));
  return msg;
}

std::string EncodeRelationUpdate(const RelationUpdateMsg& msg) {
  std::ostringstream out;
  out << msg.relation << ' ' << msg.arity << ' ' << msg.tuples.size();
  for (const RelationUpdateMsg::Tuple& tuple : msg.tuples) {
    for (const uint64_t attribute : tuple.attributes) {
      out << ' ' << attribute;
    }
    out << ' ' << tuple.weight;
  }
  return out.str();
}

StatusOr<RelationUpdateMsg> DecodeRelationUpdate(std::string_view payload) {
  std::istringstream in{std::string(payload)};
  RelationUpdateMsg msg;
  uint64_t count = 0;
  if (!ReadToken(in, &msg.relation) || !ReadToken(in, &msg.arity) ||
      !ReadToken(in, &count)) {
    return Malformed("relation-update");
  }
  SKIMJOIN_RETURN_IF_ERROR(ValidateWireName(msg.relation, "relation name"));
  // Arity is tiny in practice (chain ends 1, interiors 2); 64 is a
  // generous protocol ceiling that keeps count*arity from overflowing.
  if (msg.arity < 1 || msg.arity > 64) return Malformed("relation-update");
  if (count > kMaxWireBatchElements || count * msg.arity > payload.size()) {
    return Malformed("relation-update");
  }
  msg.tuples.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    RelationUpdateMsg::Tuple tuple;
    tuple.attributes.resize(msg.arity);
    for (uint64_t a = 0; a < msg.arity; ++a) {
      if (!ReadToken(in, &tuple.attributes[a])) {
        return Malformed("relation-update");
      }
    }
    if (!ReadToken(in, &tuple.weight)) return Malformed("relation-update");
    msg.tuples.push_back(std::move(tuple));
  }
  SKIMJOIN_RETURN_IF_ERROR(ExpectExhausted(in, "relation-update"));
  return msg;
}

std::string EncodeMetricsSnapshot(const metrics::Snapshot& snapshot) {
  std::ostringstream out;
  out << snapshot.counters.size();
  for (const auto& [name, value] : snapshot.counters) {
    out << ' ';
    AppendBlob(out, name);
    out << ' ' << value;
  }
  out << ' ' << snapshot.gauges.size();
  for (const auto& [name, value] : snapshot.gauges) {
    out << ' ';
    AppendBlob(out, name);
    out << ' ' << DoubleBits(value);
  }
  out << ' ' << snapshot.histograms.size();
  for (const auto& [name, h] : snapshot.histograms) {
    out << ' ';
    AppendBlob(out, name);
    out << ' ' << h.count << ' ' << DoubleBits(h.sum) << ' '
        << DoubleBits(h.min) << ' ' << DoubleBits(h.max);
    uint64_t nonzero = 0;
    for (const uint64_t b : h.buckets) nonzero += b != 0 ? 1 : 0;
    out << ' ' << nonzero;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] != 0) out << ' ' << i << ' ' << h.buckets[i];
    }
  }
  return out.str();
}

StatusOr<metrics::Snapshot> DecodeMetricsSnapshot(std::string_view payload) {
  WireCursor in(payload);
  metrics::Snapshot snapshot;
  uint64_t num_counters = 0;
  if (!in.U64(&num_counters) || num_counters > kMaxWireBatchElements ||
      num_counters > in.remaining()) {
    return Malformed("metrics-snapshot");
  }
  snapshot.counters.reserve(num_counters);
  for (uint64_t i = 0; i < num_counters; ++i) {
    std::string name;
    uint64_t value = 0;
    if (!in.Blob(&name) || name.empty() || !in.U64(&value)) {
      return Malformed("metrics-snapshot");
    }
    snapshot.counters.emplace_back(std::move(name), value);
  }
  uint64_t num_gauges = 0;
  if (!in.U64(&num_gauges) || num_gauges > kMaxWireBatchElements ||
      num_gauges > in.remaining()) {
    return Malformed("metrics-snapshot");
  }
  snapshot.gauges.reserve(num_gauges);
  for (uint64_t i = 0; i < num_gauges; ++i) {
    std::string name;
    uint64_t bits = 0;
    if (!in.Blob(&name) || name.empty() || !in.U64(&bits)) {
      return Malformed("metrics-snapshot");
    }
    snapshot.gauges.emplace_back(std::move(name), DoubleFromBits(bits));
  }
  uint64_t num_histograms = 0;
  if (!in.U64(&num_histograms) || num_histograms > kMaxWireBatchElements ||
      num_histograms > in.remaining()) {
    return Malformed("metrics-snapshot");
  }
  snapshot.histograms.reserve(num_histograms);
  for (uint64_t i = 0; i < num_histograms; ++i) {
    std::string name;
    metrics::HistogramSnapshot h;
    uint64_t sum_bits = 0, min_bits = 0, max_bits = 0, nonzero = 0;
    if (!in.Blob(&name) || name.empty() || !in.U64(&h.count) ||
        !in.U64(&sum_bits) || !in.U64(&min_bits) || !in.U64(&max_bits) ||
        !in.U64(&nonzero) ||
        nonzero > static_cast<uint64_t>(Histogram::kBuckets)) {
      return Malformed("metrics-snapshot");
    }
    h.sum = DoubleFromBits(sum_bits);
    h.min = DoubleFromBits(min_bits);
    h.max = DoubleFromBits(max_bits);
    h.buckets.assign(Histogram::kBuckets, 0);
    for (uint64_t b = 0; b < nonzero; ++b) {
      uint64_t index = 0, bucket_count = 0;
      if (!in.U64(&index) ||
          index >= static_cast<uint64_t>(Histogram::kBuckets) ||
          !in.U64(&bucket_count)) {
        return Malformed("metrics-snapshot");
      }
      h.buckets[index] = bucket_count;
    }
    snapshot.histograms.emplace_back(std::move(name), std::move(h));
  }
  if (!in.AtEnd()) {
    return InvalidArgumentError("metrics-snapshot payload has trailing bytes");
  }
  return snapshot;
}

std::string EncodeEventsRequest(const EventsRequest& msg) {
  std::ostringstream out;
  out << msg.max_events << ' ' << msg.after_sequence;
  return out.str();
}

StatusOr<EventsRequest> DecodeEventsRequest(std::string_view payload) {
  std::istringstream in{std::string(payload)};
  EventsRequest msg;
  if (!ReadToken(in, &msg.max_events) || !ReadToken(in, &msg.after_sequence)) {
    return Malformed("events-request");
  }
  SKIMJOIN_RETURN_IF_ERROR(ExpectExhausted(in, "events-request"));
  return msg;
}

std::string EncodeEventBatch(const EventBatchMsg& msg) {
  std::ostringstream out;
  out << msg.events.size();
  for (const LogEvent& event : msg.events) {
    out << ' ' << static_cast<uint64_t>(event.level) << ' ' << event.sequence
        << ' ' << event.ts_micros << ' ';
    AppendBlob(out, event.event);
    out << ' ' << event.fields.size();
    for (const auto& [key, value] : event.fields) {
      out << ' ';
      AppendBlob(out, key);
      out << ' ';
      AppendBlob(out, value);
    }
  }
  return out.str();
}

StatusOr<EventBatchMsg> DecodeEventBatch(std::string_view payload) {
  WireCursor in(payload);
  EventBatchMsg msg;
  uint64_t count = 0;
  if (!in.U64(&count) || count > kMaxWireBatchElements ||
      count > in.remaining()) {
    return Malformed("event-batch");
  }
  msg.events.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    LogEvent event;
    uint64_t level = 0, num_fields = 0;
    if (!in.U64(&level) || level > static_cast<uint64_t>(LogLevel::kError) ||
        !in.U64(&event.sequence) || !in.U64(&event.ts_micros) ||
        !in.Blob(&event.event) || !in.U64(&num_fields) ||
        num_fields > in.remaining()) {
      return Malformed("event-batch");
    }
    event.level = static_cast<LogLevel>(level);
    event.fields.reserve(num_fields);
    for (uint64_t f = 0; f < num_fields; ++f) {
      std::string key, value;
      if (!in.Blob(&key) || !in.Blob(&value)) return Malformed("event-batch");
      event.fields.emplace_back(std::move(key), std::move(value));
    }
    msg.events.push_back(std::move(event));
  }
  if (!in.AtEnd()) {
    return InvalidArgumentError("event-batch payload has trailing bytes");
  }
  return msg;
}

std::string EncodeTraceControl(const TraceControlMsg& msg) {
  return msg.enable ? "1" : "0";
}

StatusOr<TraceControlMsg> DecodeTraceControl(std::string_view payload) {
  std::istringstream in{std::string(payload)};
  uint64_t enable = 0;
  if (!ReadToken(in, &enable) || enable > 1) {
    return Malformed("trace-control");
  }
  SKIMJOIN_RETURN_IF_ERROR(ExpectExhausted(in, "trace-control"));
  TraceControlMsg msg;
  msg.enable = enable == 1;
  return msg;
}

std::string EncodeTraceEvents(const TraceEventsMsg& msg) {
  std::ostringstream out;
  out << msg.dropped << ' ' << msg.now_micros << ' ' << msg.events.size();
  for (const metrics::TraceEvent& event : msg.events) {
    out << ' ';
    AppendBlob(out, event.name);
    out << ' ';
    AppendBlob(out, event.category);
    out << ' ' << event.start_micros << ' ' << event.duration_micros << ' '
        << event.thread_id << ' ' << event.trace_id << ' ' << event.span_id
        << ' ' << event.parent_span_id;
  }
  return out.str();
}

StatusOr<TraceEventsMsg> DecodeTraceEvents(std::string_view payload) {
  WireCursor in(payload);
  TraceEventsMsg msg;
  uint64_t count = 0;
  if (!in.U64(&msg.dropped) || !in.U64(&msg.now_micros) || !in.U64(&count) ||
      count > kMaxWireBatchElements || count > in.remaining()) {
    return Malformed("trace-events");
  }
  msg.events.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    metrics::TraceEvent event;
    if (!in.Blob(&event.name) || !in.Blob(&event.category) ||
        !in.U64(&event.start_micros) || !in.U64(&event.duration_micros) ||
        !in.U64(&event.thread_id) || !in.U64(&event.trace_id) ||
        !in.U64(&event.span_id) || !in.U64(&event.parent_span_id)) {
      return Malformed("trace-events");
    }
    msg.events.push_back(std::move(event));
  }
  if (!in.AtEnd()) {
    return InvalidArgumentError("trace-events payload has trailing bytes");
  }
  return msg;
}

std::string EncodeHealthReport(const HealthReportMsg& msg) {
  std::ostringstream out;
  out << msg.findings.size();
  for (const query::HealthFinding& finding : msg.findings) {
    out << ' ' << static_cast<uint64_t>(finding.severity) << ' ';
    AppendBlob(out, finding.subject);
    out << ' ';
    AppendBlob(out, finding.rule);
    out << ' ';
    AppendBlob(out, finding.message);
  }
  return out.str();
}

StatusOr<HealthReportMsg> DecodeHealthReport(std::string_view payload) {
  WireCursor in(payload);
  HealthReportMsg msg;
  uint64_t count = 0;
  if (!in.U64(&count) || count > kMaxWireBatchElements ||
      count > in.remaining()) {
    return Malformed("health-report");
  }
  msg.findings.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    query::HealthFinding finding;
    uint64_t severity = 0;
    if (!in.U64(&severity) ||
        severity >
            static_cast<uint64_t>(query::HealthFinding::Severity::kCritical) ||
        !in.Blob(&finding.subject) || !in.Blob(&finding.rule) ||
        !in.Blob(&finding.message)) {
      return Malformed("health-report");
    }
    finding.severity = static_cast<query::HealthFinding::Severity>(severity);
    msg.findings.push_back(std::move(finding));
  }
  if (!in.AtEnd()) {
    return InvalidArgumentError("health-report payload has trailing bytes");
  }
  return msg;
}

std::string EncodeError(const Status& status) {
  std::ostringstream out;
  out << static_cast<int>(status.code()) << ' ' << status.message();
  return out.str();
}

Status DecodeError(std::string_view payload) {
  std::istringstream in{std::string(payload)};
  int code = 0;
  if (!(in >> code) || code < static_cast<int>(StatusCode::kInvalidArgument) ||
      code > static_cast<int>(StatusCode::kInternal)) {
    return InternalError("peer sent an undecodable error payload");
  }
  std::string message;
  std::getline(in, message);
  if (!message.empty() && message.front() == ' ') message.erase(0, 1);
  return Status(static_cast<StatusCode>(code),
                "remote: " + (message.empty() ? "(no message)" : message));
}

StatusOr<Frame> Call(FrameChannel& channel, MessageType type,
                     std::string_view payload, Deadline deadline) {
  const metrics::TraceContext trace = metrics::CurrentTraceContext();
  SKIMJOIN_RETURN_IF_ERROR(
      channel.Send(static_cast<uint32_t>(type), payload, deadline,
                   trace.trace_id, trace.span_id, trace.parent_span_id));
  SKIMJOIN_ASSIGN_OR_RETURN(Frame reply, channel.Receive(deadline));
  if (reply.type == static_cast<uint32_t>(MessageType::kError)) {
    return DecodeError(reply.payload);
  }
  return reply;
}

}  // namespace dist
}  // namespace skimjoin
