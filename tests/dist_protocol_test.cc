// Codec tests for the protocol messages (dist/protocol): exact round trips
// for the query registration of every kind and for the telemetry payloads,
// the HelloReply trace-clock token's backward compatibility, and decoder
// hardening — declared counts are validated before allocation and mangled
// payloads return a Status, never crash.

#include "dist/protocol.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "gtest/gtest.h"
#include "util/event_log.h"
#include "util/histogram.h"
#include "util/metrics.h"

namespace skimjoin {
namespace dist {
namespace {

TEST(HelloReplyCodec, RoundTripsTraceClock) {
  HelloReply msg;
  msg.shard_name = "s0";
  msg.incarnation = 3;
  msg.epoch = 17;
  msg.trace_clock_micros = 123456789;
  StatusOr<HelloReply> decoded = DecodeHelloReply(EncodeHelloReply(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->shard_name, "s0");
  EXPECT_EQ(decoded->incarnation, 3u);
  EXPECT_EQ(decoded->epoch, 17u);
  EXPECT_EQ(decoded->trace_clock_micros, 123456789u);
}

TEST(HelloReplyCodec, ReplyWithoutTraceClockTokenIsRefused) {
  // Every peer that gets past the SKJ2-only frame layer encodes the clock,
  // so a three-token reply is malformed, not a zero clock.
  StatusOr<HelloReply> decoded = DecodeHelloReply("s1 2 9");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  // A garbage, negative or trailing clock token is malformed too.
  EXPECT_FALSE(DecodeHelloReply("s1 2 9 notanumber").ok());
  EXPECT_FALSE(DecodeHelloReply("s1 2 9 -5").ok());
  EXPECT_FALSE(DecodeHelloReply("s1 2 9 5 extra").ok());
  EXPECT_TRUE(DecodeHelloReply("s1 2 9 5").ok());
}

TEST(RelationCodec, RegAndUpdateRoundTrip) {
  RelationReg reg;
  reg.name = "edges";
  reg.arity = 2;
  reg.domain_size = 1u << 16;
  StatusOr<RelationReg> reg2 = DecodeRelationReg(EncodeRelationReg(reg));
  ASSERT_TRUE(reg2.ok()) << reg2.status();
  EXPECT_EQ(reg2->name, "edges");
  EXPECT_EQ(reg2->arity, 2u);
  EXPECT_EQ(reg2->domain_size, uint64_t{1} << 16);

  RelationUpdateMsg update;
  update.relation = "edges";
  update.arity = 2;
  update.tuples.push_back({{1, 2}, 1});
  update.tuples.push_back({{3, 4}, -5});
  StatusOr<RelationUpdateMsg> update2 =
      DecodeRelationUpdate(EncodeRelationUpdate(update));
  ASSERT_TRUE(update2.ok()) << update2.status();
  EXPECT_EQ(update2->relation, "edges");
  ASSERT_EQ(update2->tuples.size(), 2u);
  EXPECT_EQ(update2->tuples[0].attributes, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(update2->tuples[1].attributes, (std::vector<uint64_t>{3, 4}));
  EXPECT_EQ(update2->tuples[1].weight, -5);
}

// One registration per query kind, each exercising every field its spec
// record carries: predicates, SUM inputs, names that need escaping, and
// doubles with no short decimal form.
std::vector<QueryReg> OneRegistrationPerKind() {
  query::JoinQuerySpec join;
  join.left_stream = "left side";
  join.right_stream = "r%ight";
  join.estimator.kind = core::EstimatorKind::kSkimmedSketch;
  join.estimator.space_counters = 2048;
  join.estimator.agms_num_medians = 3;
  join.estimator.num_tables = 5;
  join.estimator.threshold_scale = 0.1;
  join.estimator.recurse_slack = std::nextafter(1.0, 0.0);
  join.estimator.skim_margin = 5e-324;
  join.estimator.skimmed_use_dyadic = true;
  join.left_input = query::AggregateInput::kMeasure;
  join.left_predicate = query::RangePredicate{7, 900};
  query::FrequencyQuerySpec frequency;
  frequency.stream = "f";
  frequency.space_counters = 1000;
  frequency.num_tables = 3;
  frequency.use_dyadic = false;
  frequency.predicate = query::RangePredicate{0, UINT64_MAX};
  query::DistinctCountQuerySpec distinct;
  distinct.stream = "d";
  distinct.num_maps = 16;
  query::TopKQuerySpec topk;
  topk.stream = "t";
  topk.k = 3;
  query::QuantileQuerySpec quantile;
  quantile.stream = "q";
  quantile.epsilon = 0.1;
  quantile.predicate = query::RangePredicate{2, 2};
  query::RangeSumQuerySpec range_sum;
  range_sum.stream = "w";
  range_sum.coefficient_budget = 31;
  query::ChainJoinQuerySpec chain;
  chain.relations = {"r1", "r 2", "r3"};
  chain.method = query::ChainJoinQuerySpec::Method::kAgmsGrid;
  chain.num_means = 8;
  chain.num_medians = 3;
  return {{"q1", 0xdeadbeef, join},      {"q2", 1, frequency},
          {"q3", 2, distinct},           {"q4", 3, topk},
          {"q5", 0, quantile},           {"q6", 0, range_sum},
          {"q7", UINT64_MAX, chain}};
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(QueryRegCodec, RoundTripsEveryKind) {
  for (const QueryReg& reg : OneRegistrationPerKind()) {
    const std::string wire = EncodeQueryReg(reg);
    StatusOr<QueryReg> decoded = DecodeQueryReg(wire);
    ASSERT_TRUE(decoded.ok()) << wire << ": " << decoded.status();
    EXPECT_EQ(decoded->query_name, reg.query_name);
    EXPECT_EQ(decoded->seed, reg.seed);
    EXPECT_EQ(decoded->spec.index(), reg.spec.index()) << wire;
    // Every field is on the wire, so a decoded registration re-encodes to
    // the same bytes.
    EXPECT_EQ(EncodeQueryReg(*decoded), wire);
  }
}

TEST(QueryRegCodec, CarriesPredicatesInputsAndNames) {
  const std::vector<QueryReg> regs = OneRegistrationPerKind();
  StatusOr<QueryReg> join = DecodeQueryReg(EncodeQueryReg(regs[0]));
  ASSERT_TRUE(join.ok()) << join.status();
  const auto& spec = std::get<query::JoinQuerySpec>(join->spec);
  EXPECT_EQ(spec.left_stream, "left side");
  EXPECT_EQ(spec.right_stream, "r%ight");
  EXPECT_EQ(spec.estimator.kind, core::EstimatorKind::kSkimmedSketch);
  EXPECT_TRUE(spec.estimator.skimmed_use_dyadic);
  EXPECT_EQ(spec.left_input, query::AggregateInput::kMeasure);
  EXPECT_EQ(spec.right_input, query::AggregateInput::kCount);
  ASSERT_TRUE(spec.left_predicate.has_value());
  EXPECT_EQ(spec.left_predicate->lo, 7u);
  EXPECT_EQ(spec.left_predicate->hi, 900u);
  EXPECT_FALSE(spec.right_predicate.has_value());

  StatusOr<QueryReg> chain = DecodeQueryReg(EncodeQueryReg(regs[6]));
  ASSERT_TRUE(chain.ok()) << chain.status();
  const auto& chain_spec = std::get<query::ChainJoinQuerySpec>(chain->spec);
  EXPECT_EQ(chain_spec.relations,
            (std::vector<std::string>{"r1", "r 2", "r3"}));
  EXPECT_EQ(chain_spec.method, query::ChainJoinQuerySpec::Method::kAgmsGrid);
  EXPECT_EQ(chain->seed, UINT64_MAX);
}

TEST(QueryRegCodec, SpecDoublesRoundTripBitExactly) {
  for (const double value :
       {0.1, std::nextafter(1.0, 0.0), 5e-324, 1.0 / 3.0, 2.0, 1e300}) {
    query::JoinQuerySpec join;
    join.left_stream = "f";
    join.right_stream = "g";
    join.estimator.threshold_scale = value;
    join.estimator.recurse_slack = value;
    join.estimator.skim_margin = value;
    query::QuantileQuerySpec quantile;
    quantile.stream = "f";
    quantile.epsilon = value;
    StatusOr<QueryReg> j = DecodeQueryReg(EncodeQueryReg({"q", 1, join}));
    StatusOr<QueryReg> q = DecodeQueryReg(EncodeQueryReg({"q", 1, quantile}));
    ASSERT_TRUE(j.ok()) << j.status();
    ASSERT_TRUE(q.ok()) << q.status();
    const core::EstimatorSpec& est =
        std::get<query::JoinQuerySpec>(j->spec).estimator;
    EXPECT_TRUE(SameBits(est.threshold_scale, value)) << value;
    EXPECT_TRUE(SameBits(est.recurse_slack, value)) << value;
    EXPECT_TRUE(SameBits(est.skim_margin, value)) << value;
    EXPECT_TRUE(SameBits(
        std::get<query::QuantileQuerySpec>(q->spec).epsilon, value))
        << value;
  }
}

TEST(QueryRegCodec, TruncationAtEveryPrefixFailsCleanly) {
  for (const QueryReg& reg : OneRegistrationPerKind()) {
    const std::string wire = EncodeQueryReg(reg);
    for (size_t len = 0; len < wire.size(); ++len) {
      const std::string_view prefix(wire.data(), len);
      // No prefix may crash or over-allocate; one that stops at a token
      // boundary lacks whole fields and must be refused.
      const StatusOr<QueryReg> decoded = DecodeQueryReg(prefix);
      if (wire[len] == ' ') {
        EXPECT_FALSE(decoded.ok()) << "prefix " << len << " of " << wire;
      }
    }
  }
}

TEST(QueryRegCodec, HostileRelationCountIsRejectedBeforeAllocation) {
  // 2^24 relations (the manifest's own cap) declared in a payload that has
  // room for two: the count is bounded by the bytes left, so the decoder
  // refuses before reserving anything.
  EXPECT_FALSE(
      DecodeQueryReg("q 1 chain 16777216 a b hashsketch 1 1 1 1").ok());
  EXPECT_FALSE(DecodeQueryReg(
                   "q 1 chain 18446744073709551615 a b hashsketch 1 1 1 1")
                   .ok());
  EXPECT_FALSE(DecodeQueryReg("q 1 chain 3 a b hashsketch 1 1 1 1").ok());
  EXPECT_FALSE(DecodeQueryReg("q 1 chain 1 a hashsketch 1 1 1 1").ok());
  EXPECT_TRUE(DecodeQueryReg("q 1 chain 2 a b hashsketch 1 1 1 1").ok());
}

TEST(QueryRegCodec, MalformedFieldsAreRefused) {
  EXPECT_FALSE(DecodeQueryReg("").ok());
  EXPECT_FALSE(DecodeQueryReg("q 1 nosuchkind f").ok());
  EXPECT_FALSE(  // query names are wire names: at most 256 bytes
      DecodeQueryReg(std::string(300, 'n') + " 1 distinct f 16 nopred").ok());
  EXPECT_FALSE(DecodeQueryReg("q 1 distinct f 16 pred 9 3").ok());  // lo > hi
  EXPECT_FALSE(DecodeQueryReg("q 1 distinct f 16 maybe").ok());
  EXPECT_FALSE(DecodeQueryReg("q 1 distinct f%zz 16 nopred").ok());
  EXPECT_FALSE(DecodeQueryReg("q 1 distinct f 16 nopred extra").ok());
  EXPECT_FALSE(DecodeQueryReg("q 1 quantile f 0.1x nopred").ok());
  EXPECT_FALSE(
      DecodeQueryReg("q 1 join f g bogus 64 5 7 2 0.5 0 0 0 0 nopred nopred")
          .ok());
  EXPECT_FALSE(
      DecodeQueryReg("q 1 chain 2 a b neither 1 1 1 1").ok());
  // Unsigned spec fields carry no sign ("-16" would wrap to 2^64 - 16).
  EXPECT_FALSE(DecodeQueryReg("q 1 distinct f -16 nopred").ok());
  EXPECT_FALSE(DecodeQueryReg("q 1 distinct f +16 nopred").ok());
  EXPECT_FALSE(DecodeQueryReg("q 1 distinct f 16 pred -3 -1").ok());
  EXPECT_FALSE(DecodeQueryReg("q 1 distinct f 16 pred 3 +9").ok());
  EXPECT_FALSE(DecodeQueryReg("q 1 topk t -3 4096 7 nopred").ok());
  EXPECT_FALSE(DecodeQueryReg("q 1 frequency f 1000 +3 0 nopred").ok());
  EXPECT_FALSE(DecodeQueryReg("q 1 rangesum w -31 nopred").ok());
  EXPECT_FALSE(DecodeQueryReg("q 1 chain 2 a b hashsketch 1 -1 1 1").ok());
  EXPECT_FALSE(
      DecodeQueryReg("q 1 join f g skimmed -64 5 7 0.5 0 0 0 0 0 nopred nopred")
          .ok());
  EXPECT_TRUE(
      DecodeQueryReg("q 1 join f g skimmed 64 5 7 0.5 0 0 0 0 0 nopred nopred")
          .ok());
  EXPECT_TRUE(DecodeQueryReg("q 1 distinct f 16 nopred").ok());
}

// The 0/1 spec flags (dyadic skims, each side's aggregate input) take 0 or
// 1 and nothing else, rather than reading any int as "on".
TEST(QueryRegCodec, SpecFlagsOtherThanZeroOrOneAreRefused) {
  const StatusOr<QueryReg> bad = DecodeQueryReg(
      "q 1 join f g skimmed 64 5 7 0.5 0 0 -7 2 -1 nopred nopred");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  for (const char* flags : {"2 0 0", "0 2 0", "0 0 +1", "01 0 0"}) {
    EXPECT_FALSE(DecodeQueryReg(std::string("q 1 join f g skimmed 64 5 7 0.5 "
                                            "0 0 ") +
                                flags + " nopred nopred")
                     .ok())
        << flags;
  }
  EXPECT_FALSE(DecodeQueryReg("q 1 frequency f 1000 3 2 nopred").ok());
  EXPECT_TRUE(DecodeQueryReg("q 1 frequency f 1000 3 1 nopred").ok());
  EXPECT_TRUE(
      DecodeQueryReg("q 1 join f g skimmed 64 5 7 0.5 0 0 1 1 1 nopred nopred")
          .ok());
}

TEST(MetricsSnapshotCodec, RoundTripsEverySection) {
  metrics::Registry registry;
  registry.GetCounter("ingest.f.elements_absorbed")->Increment(42);
  registry.GetCounter(
      metrics::LabeledName("dist.calls", {{"shard", "0"}}))->Increment(7);
  registry.GetGauge("engine.num_streams")->Set(2.5);
  metrics::ShardedHistogram* h = registry.GetHistogram("rpc.latency");
  h->Record(1.0);
  h->Record(100.0);
  const metrics::Snapshot original = registry.TakeSnapshot();

  StatusOr<metrics::Snapshot> decoded =
      DecodeMetricsSnapshot(EncodeMetricsSnapshot(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->counters, original.counters);
  EXPECT_EQ(decoded->gauges, original.gauges);
  ASSERT_EQ(decoded->histograms.size(), 1u);
  EXPECT_EQ(decoded->histograms[0].first, "rpc.latency");
  const metrics::HistogramSnapshot& got = decoded->histograms[0].second;
  const metrics::HistogramSnapshot& want = original.histograms[0].second;
  EXPECT_EQ(got.count, want.count);
  EXPECT_DOUBLE_EQ(got.sum, want.sum);
  EXPECT_DOUBLE_EQ(got.min, want.min);
  EXPECT_DOUBLE_EQ(got.max, want.max);
  EXPECT_EQ(got.buckets, want.buckets);
}

TEST(MetricsSnapshotCodec, EmptyHistogramKeepsNaNMinMax) {
  metrics::Registry registry;
  registry.GetHistogram("empty");
  StatusOr<metrics::Snapshot> decoded =
      DecodeMetricsSnapshot(EncodeMetricsSnapshot(registry.TakeSnapshot()));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->histograms.size(), 1u);
  EXPECT_EQ(decoded->histograms[0].second.count, 0u);
  // NaN survives the IEEE-754 bit-pattern transport.
  EXPECT_TRUE(std::isnan(decoded->histograms[0].second.min));
  EXPECT_TRUE(std::isnan(decoded->histograms[0].second.max));
}

TEST(EventsCodec, RequestAndBatchRoundTrip) {
  EventsRequest request;
  request.max_events = 128;
  request.after_sequence = 77;
  StatusOr<EventsRequest> request2 =
      DecodeEventsRequest(EncodeEventsRequest(request));
  ASSERT_TRUE(request2.ok()) << request2.status();
  EXPECT_EQ(request2->max_events, 128u);
  EXPECT_EQ(request2->after_sequence, 77u);

  EventBatchMsg batch;
  LogEvent event;
  event.level = LogLevel::kWarn;
  event.sequence = 9;
  event.ts_micros = 123;
  event.event = "worker_down";
  event.fields = {{"shard", "s0"}, {"free text", "with spaces\nand newlines"}};
  batch.events.push_back(event);
  event.level = LogLevel::kInfo;
  event.sequence = 10;
  event.event = "rpc_retry";
  event.fields.clear();
  batch.events.push_back(event);

  StatusOr<EventBatchMsg> batch2 = DecodeEventBatch(EncodeEventBatch(batch));
  ASSERT_TRUE(batch2.ok()) << batch2.status();
  ASSERT_EQ(batch2->events.size(), 2u);
  EXPECT_EQ(batch2->events[0].level, LogLevel::kWarn);
  EXPECT_EQ(batch2->events[0].sequence, 9u);
  EXPECT_EQ(batch2->events[0].ts_micros, 123u);
  EXPECT_EQ(batch2->events[0].event, "worker_down");
  ASSERT_EQ(batch2->events[0].fields.size(), 2u);
  EXPECT_EQ(batch2->events[0].fields[1].first, "free text");
  EXPECT_EQ(batch2->events[0].fields[1].second, "with spaces\nand newlines");
  EXPECT_EQ(batch2->events[1].level, LogLevel::kInfo);
  EXPECT_TRUE(batch2->events[1].fields.empty());
}

TEST(TraceCodec, ControlAndEventsRoundTrip) {
  StatusOr<TraceControlMsg> on = DecodeTraceControl(EncodeTraceControl({true}));
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_TRUE(on->enable);
  StatusOr<TraceControlMsg> off =
      DecodeTraceControl(EncodeTraceControl({false}));
  ASSERT_TRUE(off.ok()) << off.status();
  EXPECT_FALSE(off->enable);

  TraceEventsMsg msg;
  msg.dropped = 4;
  msg.now_micros = 555000;
  metrics::TraceEvent span;
  span.name = "worker.ingest";
  span.category = "dist";
  span.start_micros = 100;
  span.duration_micros = 50;
  span.thread_id = 3;
  span.trace_id = 0xAAAABBBBCCCCDDDDull;
  span.span_id = 0x1111222233334444ull;
  span.parent_span_id = 0x5555666677778888ull;
  msg.events.push_back(span);

  StatusOr<TraceEventsMsg> decoded = DecodeTraceEvents(EncodeTraceEvents(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->dropped, 4u);
  EXPECT_EQ(decoded->now_micros, 555000u);
  ASSERT_EQ(decoded->events.size(), 1u);
  EXPECT_EQ(decoded->events[0].name, "worker.ingest");
  EXPECT_EQ(decoded->events[0].category, "dist");
  EXPECT_EQ(decoded->events[0].start_micros, 100u);
  EXPECT_EQ(decoded->events[0].duration_micros, 50u);
  EXPECT_EQ(decoded->events[0].thread_id, 3u);
  EXPECT_EQ(decoded->events[0].trace_id, 0xAAAABBBBCCCCDDDDull);
  EXPECT_EQ(decoded->events[0].span_id, 0x1111222233334444ull);
  EXPECT_EQ(decoded->events[0].parent_span_id, 0x5555666677778888ull);
}

TEST(HealthReportCodec, RoundTripsSeveritiesAndFreeText) {
  HealthReportMsg msg;
  msg.findings.push_back({query::HealthFinding::Severity::kInfo, "stream f",
                          "delete-heavy", "delete ratio 0.40", ""});
  msg.findings.push_back({query::HealthFinding::Severity::kWarn, "query 3",
                          "collision-pressure",
                          "hash-sketch.f occupancy 0.99 over f⋈g — the "
                          "sketch is undersized for this stream",
                          ""});
  msg.findings.push_back({query::HealthFinding::Severity::kCritical,
                          "query 7", "counter-saturation",
                          "with: colons, 5:5 blobs and\nnewlines", ""});

  StatusOr<HealthReportMsg> decoded =
      DecodeHealthReport(EncodeHealthReport(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->findings.size(), 3u);
  for (size_t i = 0; i < msg.findings.size(); ++i) {
    EXPECT_EQ(decoded->findings[i].severity, msg.findings[i].severity);
    EXPECT_EQ(decoded->findings[i].subject, msg.findings[i].subject);
    EXPECT_EQ(decoded->findings[i].rule, msg.findings[i].rule);
    EXPECT_EQ(decoded->findings[i].message, msg.findings[i].message);
    // The shard label never rides the wire: the coordinator assigns it.
    EXPECT_TRUE(decoded->findings[i].shard.empty());
  }

  StatusOr<HealthReportMsg> empty = DecodeHealthReport(EncodeHealthReport({}));
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->findings.empty());
}

TEST(HealthReportCodec, RejectsBadSeverityAndTrailingBytes) {
  HealthReportMsg msg;
  msg.findings.push_back(
      {query::HealthFinding::Severity::kWarn, "s", "r", "m", ""});
  const std::string wire = EncodeHealthReport(msg);
  EXPECT_FALSE(DecodeHealthReport(wire + " junk").ok());
  // Severity beyond kCritical is a protocol violation, not a cast.
  std::string bad = wire;
  const size_t severity_at = bad.find(" 1 ");
  ASSERT_NE(severity_at, std::string::npos);
  bad.replace(severity_at, 3, " 9 ");
  EXPECT_FALSE(DecodeHealthReport(bad).ok());
}

// ---------------------------------------------------------------------------
// Hardening: hostile payloads return a Status, never crash or over-allocate.
// ---------------------------------------------------------------------------

TEST(TelemetryCodecHardening, HugeDeclaredCountsAreRejectedBeforeAllocation) {
  // An event batch declaring 2^60 events must fail on the count check, not
  // try to reserve the vector.
  EXPECT_FALSE(DecodeEventBatch("1152921504606846976 ").ok());
  EXPECT_FALSE(DecodeTraceEvents("0 0 1152921504606846976 ").ok());
  EXPECT_FALSE(DecodeHealthReport("1152921504606846976 ").ok());
  // A relation update declaring more tuples than kMaxWireBatchElements.
  EXPECT_FALSE(DecodeRelationUpdate("r 1 99999999999 1 1").ok());
}

TEST(TelemetryCodecHardening, DecodersSurviveEveryTruncation) {
  metrics::Registry registry;
  registry.GetCounter("a.b")->Increment(1);
  registry.GetHistogram("h")->Record(2.0);
  EventBatchMsg batch;
  LogEvent event;
  event.level = LogLevel::kError;
  event.sequence = 1;
  event.ts_micros = 2;
  event.event = "e";
  event.fields = {{"k", "v"}};
  batch.events.push_back(event);
  TraceEventsMsg trace;
  metrics::TraceEvent span;
  span.name = "s";
  span.category = "c";
  span.trace_id = 1;
  trace.events.push_back(span);

  const std::vector<std::string> payloads = {
      EncodeMetricsSnapshot(registry.TakeSnapshot()),
      EncodeEventBatch(batch),
      EncodeTraceEvents(trace),
      EncodeRelationUpdate({"r", 2, {{{1, 2}, 1}}}),
      EncodeHealthReport(
          {{{query::HealthFinding::Severity::kWarn, "s", "r", "m", ""}}}),
  };
  for (const std::string& payload : payloads) {
    for (size_t len = 0; len < payload.size(); ++len) {
      const std::string_view prefix(payload.data(), len);
      // Just must not crash/over-allocate; truncations that cut a required
      // token return a Status.
      (void)DecodeMetricsSnapshot(prefix);
      (void)DecodeEventBatch(prefix);
      (void)DecodeTraceEvents(prefix);
      (void)DecodeRelationUpdate(prefix);
      (void)DecodeHealthReport(prefix);
    }
  }
}

TEST(TelemetryCodecHardening, BlobLengthLyingAboutSizeIsRejected) {
  // Event names ride as length-prefixed blobs "<len>:<bytes>". A length
  // that overruns the actual payload must fail cleanly.
  EventBatchMsg batch;
  LogEvent event;
  event.level = LogLevel::kInfo;
  event.sequence = 1;
  event.ts_micros = 2;
  event.event = "name";
  batch.events.push_back(event);
  std::string wire = EncodeEventBatch(batch);
  const size_t blob = wire.find("4:name");
  ASSERT_NE(blob, std::string::npos) << wire;
  wire.replace(blob, 2, "9:");  // lie: declare 9 bytes where 4 exist
  EXPECT_FALSE(DecodeEventBatch(wire).ok());
}

TEST(TelemetryCodecHardening, RelationUpdateArityMismatchIsRejected) {
  // Declared arity 3 but tuples carrying 2 attributes each cannot decode
  // into ragged tuples.
  RelationUpdateMsg msg;
  msg.relation = "r";
  msg.arity = 2;
  msg.tuples.push_back({{1, 2}, 1});
  std::string wire = EncodeRelationUpdate(msg);
  const size_t arity_at = wire.find(" 2 ");
  ASSERT_NE(arity_at, std::string::npos);
  wire.replace(arity_at, 3, " 3 ");
  EXPECT_FALSE(DecodeRelationUpdate(wire).ok());
}

// ---------------------------------------------------------------------------
// The wire, pinned: one row per message type holds a message built from
// fixed inputs and the exact payload bytes its encoder writes, so a codec
// change that moves any frame's bytes fails here first.
// ---------------------------------------------------------------------------

struct WireRow {
  MessageType type;
  /// The pinned payload bytes.
  std::string golden;
  /// What the encoder writes for the row's message today.
  std::string encoded;
  /// Decodes a payload and re-encodes what it read (for kError, renders
  /// the decoded Status as "<code> <message>"). Null for payloads with no
  /// fields to decode.
  std::function<StatusOr<std::string>(std::string_view)> reencode;
  /// reencode(golden): the golden itself, except for kError.
  std::string decoded;
};

template <typename Msg>
WireRow Codec(MessageType type, std::string golden, const Msg& msg,
              std::string (*encode)(const Msg&),
              StatusOr<Msg> (*decode)(std::string_view)) {
  WireRow row{type, golden, encode(msg),
              [encode, decode](std::string_view payload)
                  -> StatusOr<std::string> {
                StatusOr<Msg> read = decode(payload);
                if (!read.ok()) return read.status();
                return encode(*read);
              },
              golden};
  return row;
}

// A bare-name payload (kPullDelta's query name, kRegistered's acked name).
WireRow Name(MessageType type, std::string name) {
  return {type, name, name,
          [](std::string_view payload) -> StatusOr<std::string> {
            const Status valid = ValidateWireName(payload, "name");
            if (!valid.ok()) return valid;
            return std::string(payload);
          },
          name};
}

WireRow Empty(MessageType type) { return {type, "", "", nullptr, ""}; }

WireRow Error(std::string golden, const Status& status, std::string decoded) {
  return {MessageType::kError, std::move(golden), EncodeError(status),
          [](std::string_view payload) -> StatusOr<std::string> {
            const Status read = DecodeError(payload);
            return std::to_string(static_cast<int>(read.code())) + " " +
                   read.message();
          },
          std::move(decoded)};
}

metrics::Snapshot GoldenSnapshot() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  metrics::Snapshot snapshot;
  snapshot.counters = {{"dist.calls{shard=\"0\"}", 7},
                       {"free text name", 42}};
  snapshot.gauges = {{"gauge.nan", nan}, {"gauge.half", -0.5}};
  metrics::HistogramSnapshot empty;
  empty.min = nan;
  empty.max = nan;
  empty.buckets.assign(Histogram::kBuckets, 0);
  metrics::HistogramSnapshot used;
  used.count = 3;
  used.sum = 101.5;
  used.min = 0.5;
  used.max = 100.0;
  used.buckets.assign(Histogram::kBuckets, 0);
  used.buckets[0] = 2;
  used.buckets[Histogram::kBuckets - 1] = 1;
  snapshot.histograms = {{"empty", empty}, {"rpc.latency", used}};
  return snapshot;
}

std::vector<WireRow> WireTable() {
  std::vector<WireRow> rows = {
      Empty(MessageType::kHello),
      Codec(MessageType::kHelloReply, "s0 3 17 123456789",
            HelloReply{"s0", 3, 17, 123456789}, &EncodeHelloReply,
            &DecodeHelloReply),
      Codec(MessageType::kRegisterStream, "clicks 4096",
            StreamReg{"clicks", 4096}, &EncodeStreamReg, &DecodeStreamReg),
      Name(MessageType::kRegistered, "clicks"),
      Codec(MessageType::kUpdateBatch,
            "f 4 7 1 0 9 -3 -250 18446744073709551615 2 -9223372036854775808 "
            "0 9223372036854775807 9223372036854775807",
            UpdateBatchMsg{"f",
                           {{7, 1, 0},
                            {9, -3, -250},
                            {UINT64_MAX, 2, INT64_MIN},
                            {0, INT64_MAX, INT64_MAX}}},
            &EncodeUpdateBatch, &DecodeUpdateBatch),
      Codec(MessageType::kUpdateBatch, "f 0", UpdateBatchMsg{"f", {}},
            &EncodeUpdateBatch, &DecodeUpdateBatch),
      Codec(MessageType::kUpdateAck, "s0 3 18 0", HelloReply{"s0", 3, 18, 0},
            &EncodeHelloReply, &DecodeHelloReply),
      Name(MessageType::kPullDelta, "q1"),
      Codec(MessageType::kDelta,
            "q1 3 18 29\nhashsketch 2 3\n1 -2 3\n4 5 -6\n",
            DeltaMsg{"q1", 3, 18, "hashsketch 2 3\n1 -2 3\n4 5 -6\n"},
            &EncodeDelta, &DecodeDelta),
      Codec(MessageType::kDelta, "q2 0 0 0\n", DeltaMsg{"q2", 0, 0, ""},
            &EncodeDelta, &DecodeDelta),
      Empty(MessageType::kCheckpoint),
      Codec(MessageType::kCheckpointAck, "s0 3 18 0",
            HelloReply{"s0", 3, 18, 0}, &EncodeHelloReply, &DecodeHelloReply),
      Empty(MessageType::kPing),
      Error("2 unknown query 'q9' on shard s0",
            NotFoundError("unknown query 'q9' on shard s0"),
            "2 remote: unknown query 'q9' on shard s0"),
      Error("8 ", InternalError(""), "8 remote: (no message)"),
      Codec(MessageType::kRegisterRelation, "edges 2 65536",
            RelationReg{"edges", 2, 65536}, &EncodeRelationReg,
            &DecodeRelationReg),
      Codec(MessageType::kUpdateRelation, "edges 2 2 1 2 1 3 4 -5",
            RelationUpdateMsg{"edges", 2, {{{1, 2}, 1}, {{3, 4}, -5}}},
            &EncodeRelationUpdate, &DecodeRelationUpdate),
      Codec(MessageType::kUpdateRelation, "edges 2 0",
            RelationUpdateMsg{"edges", 2, {}}, &EncodeRelationUpdate,
            &DecodeRelationUpdate),
      Empty(MessageType::kMetricsRequest),
      Codec(MessageType::kMetricsSnapshot,
            "2 21:dist.calls{shard=\"0\"} 7 14:free text name 42 2 "
            "9:gauge.nan 9221120237041090560 10:gauge.half "
            "13826050856027422720 2 5:empty 0 0 9221120237041090560 "
            "9221120237041090560 0 11:rpc.latency 3 4636842844470902784 "
            "4602678819172646912 4636737291354636288 2 0 2 63 1",
            GoldenSnapshot(),
            &EncodeMetricsSnapshot, &DecodeMetricsSnapshot),
      Codec(MessageType::kMetricsSnapshot, "0 0 0", metrics::Snapshot{},
            &EncodeMetricsSnapshot, &DecodeMetricsSnapshot),
      Codec(MessageType::kEventsRequest, "128 77", EventsRequest{128, 77},
            &EncodeEventsRequest, &DecodeEventsRequest),
      Codec(MessageType::kEventBatch,
            "2 2 9 123 11:worker_down 3 5:shard 2:s0 9:free text "
            "25:with spaces\nand a newline 0: 0: 0 10 124 9:rpc retry 0",
            EventBatchMsg{{{LogLevel::kWarn,
                            9,
                            123,
                            "worker_down",
                            {{"shard", "s0"},
                             {"free text", "with spaces\nand a newline"},
                             {"", ""}}},
                           {LogLevel::kDebug, 10, 124, "rpc retry", {}}}},
            &EncodeEventBatch, &DecodeEventBatch),
      Codec(MessageType::kEventBatch, "0", EventBatchMsg{}, &EncodeEventBatch,
            &DecodeEventBatch),
      Codec(MessageType::kTraceControl, "1", TraceControlMsg{true},
            &EncodeTraceControl, &DecodeTraceControl),
      Codec(MessageType::kTraceControl, "0", TraceControlMsg{false},
            &EncodeTraceControl, &DecodeTraceControl),
      Name(MessageType::kRegistered, "trace"),
      Empty(MessageType::kTraceRequest),
      Codec(MessageType::kTraceEvents,
            "4 555000 2 13:worker.ingest 4:dist 100 50 3 "
            "12297848147757817309 1229801703532086340 6148933456521300104 "
            "11:a span name 0: 0 0 0 0 0 0",
            TraceEventsMsg{4,
                           555000,
                           {{"worker.ingest", "dist", 100, 50, 3,
                             0xAAAABBBBCCCCDDDDull, 0x1111222233334444ull,
                             0x5555666677778888ull},
                            {"a span name", "", 0, 0, 0, 0, 0, 0}}},
            &EncodeTraceEvents, &DecodeTraceEvents),
      Empty(MessageType::kHealthRequest),
      Codec(MessageType::kHealthReport,
            "2 0 8:stream f 12:delete-heavy 17:delete ratio 0.40 2 7:query 7 "
            "18:counter-saturation 36:with: colons, 5:5 blobs and\nnewlines",
            HealthReportMsg{
                {{query::HealthFinding::Severity::kInfo, "stream f",
                  "delete-heavy", "delete ratio 0.40", ""},
                 {query::HealthFinding::Severity::kCritical, "query 7",
                  "counter-saturation",
                  "with: colons, 5:5 blobs and\nnewlines", ""}}},
            &EncodeHealthReport, &DecodeHealthReport),
      Codec(MessageType::kHealthReport, "0", HealthReportMsg{},
            &EncodeHealthReport, &DecodeHealthReport),
  };
  const std::vector<std::string> query_goldens = {
      "q1 3735928559 join left%20side r%25ight skimmed 2048 3 5 "
      "0.10000000000000001 0.99999999999999989 4.9406564584124654e-324 1 1 0 "
      "pred 7 900 nopred",
      "q2 1 frequency f 1000 3 0 pred 0 18446744073709551615",
      "q3 2 distinct d 16 nopred",
      "q4 3 topk t 3 4096 7 nopred",
      "q5 0 quantile q 0.10000000000000001 pred 2 2",
      "q6 0 rangesum w 31 nopred",
      "q7 18446744073709551615 chain 3 r1 r%202 r3 agmsgrid 8 3 5 64"};
  const std::vector<QueryReg> queries = OneRegistrationPerKind();
  for (size_t i = 0; i < queries.size(); ++i) {
    rows.push_back(Codec(MessageType::kRegisterQuery, query_goldens[i],
                         queries[i], &EncodeQueryReg, &DecodeQueryReg));
  }
  return rows;
}

// Prints a payload with its control bytes escaped, for failure messages.
std::string Escaped(std::string_view bytes) {
  std::string out;
  for (const char c : bytes) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else {
      out += c;
    }
  }
  return out;
}

TEST(WireGolden, EveryMessageEncodesToItsPinnedBytes) {
  for (const WireRow& row : WireTable()) {
    SCOPED_TRACE(static_cast<int>(row.type));
    EXPECT_EQ(row.encoded, row.golden) << "\"" << Escaped(row.encoded) << "\"";
    if (!row.reencode) continue;
    StatusOr<std::string> decoded = row.reencode(row.golden);
    EXPECT_TRUE(decoded.ok()) << decoded.status();
    if (decoded.ok()) {
      EXPECT_EQ(*decoded, row.decoded) << "\"" << Escaped(*decoded) << "\"";
    }
  }
}

TEST(WireGolden, EveryMessageTypeHasARow) {
  std::vector<bool> seen(28, false);
  for (const WireRow& row : WireTable()) {
    seen[static_cast<size_t>(row.type)] = true;
  }
  for (const MessageType type :
       {MessageType::kHello, MessageType::kHelloReply,
        MessageType::kRegisterStream, MessageType::kRegistered,
        MessageType::kUpdateBatch, MessageType::kUpdateAck,
        MessageType::kPullDelta, MessageType::kDelta, MessageType::kCheckpoint,
        MessageType::kCheckpointAck, MessageType::kPing, MessageType::kError,
        MessageType::kRegisterRelation, MessageType::kUpdateRelation,
        MessageType::kMetricsRequest, MessageType::kMetricsSnapshot,
        MessageType::kEventsRequest, MessageType::kEventBatch,
        MessageType::kTraceControl, MessageType::kTraceRequest,
        MessageType::kTraceEvents, MessageType::kHealthRequest,
        MessageType::kHealthReport, MessageType::kRegisterQuery}) {
    EXPECT_TRUE(seen[static_cast<size_t>(type)]) << static_cast<int>(type);
  }
}

// Every decoder against every prefix, every single-byte flip and seeded
// random edits of its golden payload: each must return a Status or a
// message, never crash or over-read (run under ASan and UBSan in CI). A
// mangled payload that still decodes must re-encode to bytes that decode
// to the same message.
TEST(WireGolden, DecodersSurviveTruncationFlipsAndRandomEdits) {
  std::mt19937_64 rng(0x736b6a32);
  for (const WireRow& row : WireTable()) {
    if (!row.reencode) continue;
    SCOPED_TRACE(static_cast<int>(row.type));
    const auto probe = [&row](const std::string& payload) {
      const StatusOr<std::string> once = row.reencode(payload);
      if (!once.ok() || row.type == MessageType::kError) return;
      const StatusOr<std::string> twice = row.reencode(*once);
      ASSERT_TRUE(twice.ok())
          << "\"" << Escaped(payload) << "\" re-encoded to \""
          << Escaped(*once) << "\": " << twice.status();
      EXPECT_EQ(*twice, *once) << "\"" << Escaped(payload) << "\"";
    };
    const std::string& wire = row.golden;
    for (size_t len = 0; len < wire.size(); ++len) probe(wire.substr(0, len));
    for (size_t i = 0; i < wire.size(); ++i) {
      for (const unsigned mask : {0x01u, 0x10u, 0x20u, 0x80u, 0xFFu}) {
        std::string flipped = wire;
        flipped[i] = static_cast<char>(static_cast<unsigned char>(flipped[i]) ^
                                       mask);
        probe(flipped);
      }
    }
    constexpr char kAlphabet[] = "0123456789 -+:\n\tx%";
    for (int m = 0; m < 1000; ++m) {
      std::string mutated = wire;
      const int edits = 1 + static_cast<int>(rng() % 4);
      for (int e = 0; e < edits; ++e) {
        const size_t at = mutated.empty() ? 0 : rng() % (mutated.size() + 1);
        const char byte = rng() % 2 == 0
                              ? kAlphabet[rng() % (sizeof(kAlphabet) - 1)]
                              : static_cast<char>(rng() % 256);
        switch (rng() % 3) {
          case 0:
            if (at < mutated.size()) mutated[at] = byte;
            break;
          case 1:
            mutated.insert(mutated.begin() + static_cast<ptrdiff_t>(at), byte);
            break;
          default:
            if (at < mutated.size()) mutated.erase(at, 1);
            break;
        }
      }
      probe(mutated);
    }
  }
}

// Unsigned fields carry no sign (read through one, a "-5" domain would
// wrap to 2^64 - 5); signed fields carry a '-' only.
TEST(WireNumbers, SignOnUnsignedFieldIsRefused) {
  EXPECT_FALSE(DecodeStreamReg("f -5").ok());
  EXPECT_FALSE(DecodeStreamReg("f +5").ok());
  EXPECT_FALSE(DecodeHelloReply("s1 -2 +9 5").ok());
  EXPECT_FALSE(DecodeHelloReply("s1 2 +9 5").ok());
  EXPECT_FALSE(DecodeUpdateBatch("f 1 -3 1 0").ok());
  EXPECT_FALSE(DecodeUpdateBatch("f +1 3 1 0").ok());
  EXPECT_FALSE(DecodeUpdateBatch("f 1 3 +1 0").ok());
  EXPECT_FALSE(DecodeEventsRequest("-1 0").ok());
  EXPECT_FALSE(DecodeEventsRequest("1 -0").ok());
  EXPECT_FALSE(DecodeRelationReg("r -1 5").ok());
  EXPECT_FALSE(DecodeRelationReg("r 1 -5").ok());
  EXPECT_FALSE(DecodeRelationUpdate("r 1 1 -5 1").ok());
  EXPECT_FALSE(DecodeDelta("q -1 2 0\n").ok());
  EXPECT_FALSE(DecodeDelta("q 1 -2 0\n").ok());
  EXPECT_FALSE(DecodeTraceControl("-0").ok());
  EXPECT_FALSE(DecodeTraceControl("+1").ok());
  EXPECT_FALSE(DecodeQueryReg("q -1 distinct f 16 nopred").ok());
  // A signed field keeps its '-'.
  EXPECT_TRUE(DecodeUpdateBatch("f 1 3 -1 -7").ok());
  EXPECT_TRUE(DecodeRelationUpdate("r 1 1 5 -1").ok());
}

}  // namespace
}  // namespace dist
}  // namespace skimjoin
