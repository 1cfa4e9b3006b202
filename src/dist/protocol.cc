#include "dist/protocol.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <concepts>
#include <sstream>
#include <utility>

#include "query/spec_codec.h"
#include "util/histogram.h"

namespace skimjoin {
namespace dist {

namespace {

// --- the writer and the reader ---------------------------------------------

/// Appends each field by the grammar in protocol.h.
class WireWriter {
 public:
  void U64(uint64_t value) { Number(value); }
  void I64(int64_t value) { Number(value); }
  void Bits(double value) { U64(std::bit_cast<uint64_t>(value)); }

  void Name(const std::string& name, const char* /*what*/) { Rest(name); }
  void Blob(const std::string& bytes) { Sized(bytes, ':'); }

  /// An enumerator (or bool) as its unsigned value.
  template <typename E>
  void Bounded(E value, E /*max*/) {
    U64(static_cast<uint64_t>(value));
  }

  /// A reader-side check: the writer writes what it is given.
  bool Require(bool /*holds*/) { return true; }

  template <typename T, typename Each>
  void List(const std::vector<T>& items, Each each) {
    U64(items.size());
    for (const T& item : items) each(item);
  }

  /// Values whose count the payload states elsewhere.
  void Array(const std::vector<uint64_t>& values, uint64_t /*count*/) {
    for (const uint64_t value : values) U64(value);
  }

  /// A histogram's nonzero buckets as (index, count) pairs.
  void Buckets(const std::vector<uint64_t>& buckets) {
    U64(static_cast<uint64_t>(std::count_if(
        buckets.begin(), buckets.end(), [](uint64_t n) { return n != 0; })));
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] == 0) continue;
      U64(i);
      U64(buckets[i]);
    }
  }

  void Synopsis(const std::string& bytes) { Sized(bytes, '\n'); }

  /// The kind token, then spec_codec's record.
  void Spec(const query::QuerySpec& spec) {
    std::ostringstream record;
    record << query::QueryKindName(spec) << ' ';
    query::WriteQuerySpec(record, spec);
    Rest(record.str());
  }

  /// Free text running to the payload's end.
  void Rest(const std::string& text) {
    Separate();
    out_ += text;
  }

  std::string Take() { return std::move(out_); }

 private:
  void Separate() {
    if (!first_) out_ += ' ';
    first_ = false;
  }

  // `<len><delimiter><bytes>`.
  void Sized(const std::string& bytes, char delimiter) {
    U64(bytes.size());
    out_ += delimiter;
    out_ += bytes;
  }

  template <typename T>
  void Number(T value) {
    Separate();
    char digits[24] = {};
    out_.append(digits,
                std::to_chars(digits, digits + sizeof(digits), value).ptr);
  }

  std::string out_;
  bool first_ = true;
};

/// The writer's inverse over untrusted bytes. The first malformed field
/// stops it, and Finish reports it.
class WireReader {
 public:
  explicit WireReader(std::string_view payload)
      : payload_(payload), rest_(payload) {}

  void U64(uint64_t& value) { Number(value); }
  void I64(int64_t& value) { Number(value); }

  void Bits(double& value) {
    uint64_t bits = 0;
    U64(bits);
    value = std::bit_cast<double>(bits);
  }

  void Name(std::string& name, const char* what) {
    if (!Separate()) return;
    const std::string_view token = rest_.substr(0, rest_.find(' '));
    if (!Check(ValidateWireName(token, what))) return;
    name.assign(token);
    rest_.remove_prefix(token.size());
  }

  void Blob(std::string& bytes) { Sized(bytes, ':'); }

  /// An unsigned value no larger than `max`, as the field's type.
  template <typename E>
  void Bounded(E& value, E max) {
    uint64_t raw = 0;
    U64(raw);
    if (Require(raw <= static_cast<uint64_t>(max))) value = static_cast<E>(raw);
  }

  /// Fails the read unless `holds`; true while nothing has failed.
  bool Require(bool holds) {
    return holds || Check(InvalidArgumentError(
                        "malformed payload at byte " +
                        std::to_string(payload_.size() - rest_.size())));
  }

  template <typename T, typename Each>
  void List(std::vector<T>& items, Each each) {
    uint64_t count = 0;
    U64(count);
    if (!Require(count <= kMaxWireBatchElements && count <= rest_.size())) {
      return;
    }
    items.reserve(count);
    for (uint64_t i = 0; i < count && ok(); ++i) each(items.emplace_back());
  }

  void Array(std::vector<uint64_t>& values, uint64_t count) {
    if (!Require(count <= rest_.size())) return;
    values.resize(count);
    for (uint64_t& value : values) U64(value);
  }

  void Buckets(std::vector<uint64_t>& buckets) {
    uint64_t nonzero = 0;
    U64(nonzero);
    if (!Require(nonzero <= static_cast<uint64_t>(Histogram::kBuckets))) return;
    buckets.assign(Histogram::kBuckets, 0);
    for (uint64_t i = 0; i < nonzero && ok(); ++i) {
      uint64_t index = 0;
      U64(index);
      if (Require(index < buckets.size())) U64(buckets[index]);
    }
  }

  /// Exact length: a truncated or padded synopsis is a framing error.
  void Synopsis(std::string& bytes) {
    Sized(bytes, '\n');
    Require(rest_.empty());
  }

  /// The kind token, then spec_codec's record to the payload's end.
  void Spec(query::QuerySpec& spec) {
    if (!Separate()) return;
    const std::string kind(rest_.substr(0, rest_.find(' ')));
    std::istringstream fields{std::string(rest_.substr(kind.size()))};
    StatusOr<query::QuerySpec> read = query::ReadQuerySpec(kind, fields);
    std::string extra;
    if (!Check(read.status()) || !Require(!(fields >> extra))) return;
    spec = *std::move(read);
    rest_ = {};
  }

  void Rest(std::string& text) {
    if (!Separate()) return;
    text.assign(rest_);
    rest_ = {};
  }

  /// OK once every byte was read as a field.
  Status Finish() {
    Require(rest_.empty());
    return status_;
  }

 private:
  bool ok() const { return status_.ok(); }

  // Keeps the first error; true while there is none.
  bool Check(Status status) {
    if (ok()) status_ = std::move(status);
    return ok();
  }

  bool Consume(char c) {
    if (!Require(!rest_.empty() && rest_.front() == c)) return false;
    rest_.remove_prefix(1);
    return true;
  }

  bool Separate() {
    if (!first_) return Consume(' ');
    first_ = false;
    return ok();
  }

  // `<len><delimiter><bytes>`, the length capped by the bytes left before
  // anything is copied.
  void Sized(std::string& bytes, char delimiter) {
    uint64_t size = 0;
    U64(size);
    if (!Consume(delimiter) || !Require(size <= rest_.size())) return;
    bytes.assign(rest_.substr(0, size));
    rest_.remove_prefix(size);
  }

  // Decimal digits, with a leading '-' only where T is signed.
  template <typename T>
  void Number(T& value) {
    if (!Separate()) return;
    const auto [end, error] =
        std::from_chars(rest_.data(), rest_.data() + rest_.size(), value);
    if (Require(error == std::errc())) rest_.remove_prefix(end - rest_.data());
  }

  std::string_view payload_;
  std::string_view rest_;
  bool first_ = true;
  Status status_;
};

// --- field descriptions ----------------------------------------------------

/// `M` is `T` or `const T`: a field description runs on a const message
/// when writing and on a mutable one when reading.
template <typename M, typename T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

template <typename Io, MessageType kType>
void Fields(Io& /*io*/, const NoFields<kType>& /*msg*/) {}

void Fields(auto& io, Is<HelloReply> auto& m) {
  io.Name(m.shard_name, "shard name");
  io.U64(m.incarnation);
  io.U64(m.epoch);
  io.U64(m.trace_clock_micros);
}

void Fields(auto& io, Is<StreamReg> auto& m) {
  io.Name(m.name, "stream name");
  io.U64(m.domain_size);
}

void Fields(auto& io, Is<RegisteredMsg> auto& m) {
  io.Name(m.name, "registered name");
}

void Fields(auto& io, Is<QueryReg> auto& m) {
  io.Name(m.query_name, "query name");
  io.U64(m.seed);
  io.Spec(m.spec);
}

void Fields(auto& io, Is<UpdateBatchMsg> auto& m) {
  io.Name(m.stream, "stream name");
  io.List(m.updates, [&io](auto& update) {
    io.U64(update.value);
    io.I64(update.count);
    io.I64(update.measure);
  });
}

void Fields(auto& io, Is<RelationReg> auto& m) {
  io.Name(m.name, "relation name");
  io.U64(m.arity);
  io.U64(m.domain_size);
}

void Fields(auto& io, Is<RelationUpdateMsg> auto& m) {
  io.Name(m.relation, "relation name");
  io.U64(m.arity);
  // Arity is tiny in practice (chain ends 1, interiors 2); 64 is a
  // generous protocol ceiling.
  io.Require(m.arity >= 1 && m.arity <= 64);
  io.List(m.tuples, [&io, &m](auto& tuple) {
    io.Array(tuple.attributes, m.arity);
    io.I64(tuple.weight);
  });
}

void Fields(auto& io, Is<PullDeltaMsg> auto& m) {
  io.Name(m.query_name, "query name");
}

void Fields(auto& io, Is<DeltaMsg> auto& m) {
  io.Name(m.query_name, "query name");
  io.U64(m.incarnation);
  io.U64(m.epoch);
  io.Synopsis(m.synopsis);
}

// Help strings stay behind: they are registration-site documentation, and
// the receiver re-attaches its own. Metric names are non-empty.
void Fields(auto& io, Is<metrics::Snapshot> auto& m) {
  const auto name = [&io](auto& series) {
    io.Blob(series.first);
    io.Require(!series.first.empty());
  };
  io.List(m.counters, [&](auto& counter) {
    name(counter);
    io.U64(counter.second);
  });
  io.List(m.gauges, [&](auto& gauge) {
    name(gauge);
    io.Bits(gauge.second);
  });
  io.List(m.histograms, [&](auto& histogram) {
    name(histogram);
    auto& h = histogram.second;
    io.U64(h.count);
    io.Bits(h.sum);
    io.Bits(h.min);
    io.Bits(h.max);
    io.Buckets(h.buckets);
  });
}

void Fields(auto& io, Is<EventsRequest> auto& m) {
  io.U64(m.max_events);
  io.U64(m.after_sequence);
}

void Fields(auto& io, Is<EventBatchMsg> auto& m) {
  io.List(m.events, [&io](auto& event) {
    io.Bounded(event.level, LogLevel::kError);
    io.U64(event.sequence);
    io.U64(event.ts_micros);
    io.Blob(event.event);
    io.List(event.fields, [&io](auto& field) {
      io.Blob(field.first);
      io.Blob(field.second);
    });
  });
}

void Fields(auto& io, Is<TraceControlMsg> auto& m) {
  io.Bounded(m.enable, true);
}

void Fields(auto& io, Is<TraceEventsMsg> auto& m) {
  io.U64(m.dropped);
  io.U64(m.now_micros);
  io.List(m.events, [&io](auto& event) {
    io.Blob(event.name);
    io.Blob(event.category);
    io.U64(event.start_micros);
    io.U64(event.duration_micros);
    io.U64(event.thread_id);
    io.U64(event.trace_id);
    io.U64(event.span_id);
    io.U64(event.parent_span_id);
  });
}

void Fields(auto& io, Is<HealthReportMsg> auto& m) {
  io.List(m.findings, [&io](auto& finding) {
    io.Bounded(finding.severity, query::HealthFinding::Severity::kCritical);
    io.Blob(finding.subject);
    io.Blob(finding.rule);
    io.Blob(finding.message);
  });
}

/// kError's fields: a non-OK status code, then its text.
struct ErrorMsg {
  StatusCode code = StatusCode::kOk;
  std::string text;
};

void Fields(auto& io, Is<ErrorMsg> auto& m) {
  io.Bounded(m.code, StatusCode::kInternal);
  io.Require(m.code != StatusCode::kOk);
  io.Rest(m.text);
}

}  // namespace

template <typename Msg>
std::string Encode(const Msg& msg) {
  WireWriter out;
  Fields(out, msg);
  return out.Take();
}

template <typename Msg>
StatusOr<Msg> Decode(std::string_view payload) {
  WireReader in(payload);
  Msg msg;
  Fields(in, msg);
  SKIMJOIN_RETURN_IF_ERROR(in.Finish());
  return msg;
}

// The codec of every payload struct kMessages names.
#define SKIMJOIN_WIRE_PAYLOAD(Msg)             \
  template std::string Encode(const Msg& msg); \
  template StatusOr<Msg> Decode<Msg>(std::string_view payload)
SKIMJOIN_WIRE_PAYLOAD(HelloMsg);
SKIMJOIN_WIRE_PAYLOAD(PingMsg);
SKIMJOIN_WIRE_PAYLOAD(CheckpointMsg);
SKIMJOIN_WIRE_PAYLOAD(MetricsRequest);
SKIMJOIN_WIRE_PAYLOAD(TraceRequest);
SKIMJOIN_WIRE_PAYLOAD(HealthRequest);
SKIMJOIN_WIRE_PAYLOAD(HelloReply);
SKIMJOIN_WIRE_PAYLOAD(StreamReg);
SKIMJOIN_WIRE_PAYLOAD(RegisteredMsg);
SKIMJOIN_WIRE_PAYLOAD(QueryReg);
SKIMJOIN_WIRE_PAYLOAD(UpdateBatchMsg);
SKIMJOIN_WIRE_PAYLOAD(RelationReg);
SKIMJOIN_WIRE_PAYLOAD(RelationUpdateMsg);
SKIMJOIN_WIRE_PAYLOAD(PullDeltaMsg);
SKIMJOIN_WIRE_PAYLOAD(DeltaMsg);
SKIMJOIN_WIRE_PAYLOAD(metrics::Snapshot);
SKIMJOIN_WIRE_PAYLOAD(EventsRequest);
SKIMJOIN_WIRE_PAYLOAD(EventBatchMsg);
SKIMJOIN_WIRE_PAYLOAD(TraceControlMsg);
SKIMJOIN_WIRE_PAYLOAD(TraceEventsMsg);
SKIMJOIN_WIRE_PAYLOAD(HealthReportMsg);
#undef SKIMJOIN_WIRE_PAYLOAD

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

std::string EncodeError(const Status& status) {
  return Encode(ErrorMsg{status.code(), status.message()});
}

Status DecodeError(std::string_view payload) {
  StatusOr<ErrorMsg> error = Decode<ErrorMsg>(payload);
  if (!error.ok()) {
    return InternalError("peer sent an undecodable error payload");
  }
  const std::string text = error->text.substr(0, error->text.find('\n'));
  return Status(error->code,
                "remote: " + (text.empty() ? "(no message)" : text));
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
