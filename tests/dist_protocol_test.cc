// Codec tests for the protocol messages (dist/protocol): exact round trips
// for the query registration of every kind and for the telemetry payloads,
// the HelloReply trace-clock token's backward compatibility, and decoder
// hardening — declared counts are validated before allocation and mangled
// payloads return a Status, never crash.

#include "dist/protocol.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "gtest/gtest.h"
#include "util/event_log.h"
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
  EXPECT_TRUE(DecodeQueryReg("q 1 distinct f 16 nopred").ok());
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

}  // namespace
}  // namespace dist
}  // namespace skimjoin
