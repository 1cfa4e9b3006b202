#include "query/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "dist/coordinator.h"
#include "gtest/gtest.h"
#include "query/shell.h"
#include "stream/zipf.h"
#include "util/metrics.h"

namespace skimjoin {
namespace query {
namespace {

StreamSpec Packets() { return {"packets", 1u << 10}; }
StreamSpec Flows() { return {"flows", 1u << 10}; }

JoinQuerySpec BasicJoinSpec() {
  JoinQuerySpec spec;
  spec.left_stream = "packets";
  spec.right_stream = "flows";
  spec.estimator.kind = core::EstimatorKind::kSkimmedSketch;
  spec.estimator.space_counters = 1024;
  return spec;
}

TEST(EngineTest, RegisterStreamValidates) {
  Engine engine;
  EXPECT_FALSE(engine.RegisterStream({"", 16}).ok());
  EXPECT_FALSE(engine.RegisterStream({"x", 1}).ok());
  ASSERT_TRUE(engine.RegisterStream({"x", 16}).ok());
  StatusOr<StreamId> duplicate = engine.RegisterStream({"x", 16});
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.num_streams(), 1u);
}

// A shard count above ingest::kMaxIngestWorkers is refused before any
// ingestor is built, and the engine keeps its configuration.
TEST(EngineTest, IngestShardCountIsBounded) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream({"s", 256}).ok());
  FrequencyQuerySpec frequency;
  frequency.stream = "s";
  frequency.space_counters = 64;
  ASSERT_TRUE(engine.AddFrequencyQuery(frequency, 1).ok());
  for (const uint64_t shards :
       {ingest::kMaxIngestWorkers + 1, uint64_t{1} << 40, UINT64_MAX}) {
    Engine::IngestOptions options;
    options.shards = shards;
    EXPECT_EQ(engine.SetIngestOptions(options).code(),
              StatusCode::kInvalidArgument)
        << shards;
  }
  EXPECT_EQ(engine.ingest_options().shards, 1u);
  const std::vector<StreamUpdate> batch = {{1, 1, 0}, {2, 1, 0}};
  EXPECT_TRUE(engine.UpdateBatch("s", batch).ok());
}

// A sampling join takes any weight as that many unit inserts or deletes,
// so weighted and unit-weight feeds answer bit-identically.
TEST(EngineTest, SamplingJoinTakesWeightedUpdates) {
  Engine weighted;
  Engine unit;
  JoinQuerySpec spec;
  spec.left_stream = "f";
  spec.right_stream = "g";
  spec.estimator.kind = core::EstimatorKind::kSampling;
  spec.estimator.space_counters = 8;
  QueryId query = 0;
  for (Engine* engine : {&weighted, &unit}) {
    ASSERT_TRUE(engine->RegisterStream({"f", 64}).ok());
    ASSERT_TRUE(engine->RegisterStream({"g", 64}).ok());
    StatusOr<QueryId> added = engine->AddJoinQuery(spec, 7);
    ASSERT_TRUE(added.ok()) << added.status();
    query = *added;
  }
  const std::vector<std::pair<uint64_t, int64_t>> f = {
      {2, 3}, {5, -2}, {9, 20}, {2, -1}, {3, 0}};
  const std::vector<std::pair<uint64_t, int64_t>> g = {{2, 4}, {9, 6}};
  for (const auto& [stream, elements] :
       {std::pair{"f", f}, std::pair{"g", g}}) {
    for (const auto& [value, weight] : elements) {
      ASSERT_TRUE(weighted.Update(stream, StreamUpdate{value, weight, 0}).ok());
      const int64_t unit_weight = weight < 0 ? -1 : 1;
      for (int64_t i = 0; i < std::abs(weight); ++i) {
        ASSERT_TRUE(
            unit.Update(stream, StreamUpdate{value, unit_weight, 0}).ok());
      }
    }
  }
  StatusOr<double> from_weighted = weighted.AnswerJoin(query);
  StatusOr<double> from_unit = unit.AnswerJoin(query);
  ASSERT_TRUE(from_weighted.ok()) << from_weighted.status();
  ASSERT_TRUE(from_unit.ok()) << from_unit.status();
  EXPECT_EQ(std::memcmp(&*from_weighted, &*from_unit, sizeof(double)), 0)
      << *from_weighted << " vs " << *from_unit;
  EXPECT_GT(*from_unit, 0.0);
}

TEST(EngineTest, JoinQueryRequiresRegisteredStreams) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  StatusOr<QueryId> query = engine.AddJoinQuery(BasicJoinSpec(), 1);
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, JoinQueryRequiresMatchingDomains) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  ASSERT_TRUE(engine.RegisterStream({"flows", 1u << 12}).ok());
  StatusOr<QueryId> query = engine.AddJoinQuery(BasicJoinSpec(), 1);
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, JoinQueryRejectsNonFiniteThresholdScale) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  ASSERT_TRUE(engine.RegisterStream(Flows()).ok());
  for (const double scale : {std::nan(""),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    JoinQuerySpec spec = BasicJoinSpec();
    spec.estimator.threshold_scale = scale;
    EXPECT_EQ(engine.AddJoinQuery(spec, 1).status().code(),
              StatusCode::kInvalidArgument)
        << scale;
  }
  EXPECT_EQ(engine.num_queries(), 0u);
}

// AddQuery is the one registration dispatch: every spec kind registers
// exactly as its own Add*Query does. Each kind then goes through every
// operation of the query table.
TEST(EngineTest, AddQueryDispatchesEverySpecKind) {
  Engine engine, copy;
  JoinQuerySpec join;
  join.left_stream = "s";
  join.right_stream = "s";
  join.estimator.space_counters = 256;
  FrequencyQuerySpec frequency;
  frequency.stream = "s";
  frequency.space_counters = 256;
  DistinctCountQuerySpec distinct;
  distinct.stream = "s";
  TopKQuerySpec topk;
  topk.stream = "s";
  topk.space_counters = 256;
  QuantileQuerySpec quantile;
  quantile.stream = "s";
  RangeSumQuerySpec range_sum;
  range_sum.stream = "s";
  ChainJoinQuerySpec chain;
  chain.relations = {"r0", "r1"};
  // Ids 1..7 follow QuerySpec's order; a second join (id 8) comes after
  // queries of other kinds.
  const std::vector<QuerySpec> specs = {join,     frequency, distinct, topk,
                                        quantile, range_sum, chain,    join};
  for (Engine* e : {&engine, &copy}) {
    ASSERT_TRUE(e->RegisterStream({"s", 1u << 8}).ok());
    ASSERT_TRUE(e->RegisterRelation({"r0", 1, 16}).ok());
    ASSERT_TRUE(e->RegisterRelation({"r1", 1, 16}).ok());
    for (const QuerySpec& spec : specs) {
      StatusOr<QueryId> id = e->AddQuery(spec, 7);
      ASSERT_TRUE(id.ok()) << id.status();
    }
  }
  EXPECT_EQ(engine.num_queries(), specs.size());
  ASSERT_TRUE(engine.Update("s", StreamUpdate{3, 2, 0}).ok());
  ASSERT_TRUE(engine.UpdateRelation("r0", {5}, 1).ok());
  ASSERT_TRUE(engine.UpdateRelation("r1", {5}, 1).ok());
  EXPECT_EQ(*engine.AnswerPointFrequency(2, 3), 2);
  EXPECT_EQ(*engine.AnswerQuantile(5, 0.5), 3u);
  EXPECT_TRUE(engine.AnswerChainJoin(7).ok());

  // Synopsis I/O: a record loaded into a second engine re-serializes
  // byte-identically.
  for (QueryId id = 1; id <= specs.size(); ++id) {
    std::string record, reloaded;
    ASSERT_TRUE(engine.SerializeQuerySynopsis(id, &record).ok()) << id;
    ASSERT_TRUE(copy.LoadQuerySynopsis(id, std::span(&record, 1)).ok())
        << id;
    ASSERT_TRUE(copy.SerializeQuerySynopsis(id, &reloaded).ok()) << id;
    EXPECT_EQ(reloaded, record) << id;
  }

  // Gauges: every kind reports its footprint.
  const metrics::Snapshot snapshot = engine.MetricsSnapshot();
  for (QueryId id = 1; id <= specs.size(); ++id) {
    const std::string name = "query." + std::to_string(id) + ".memory_bytes";
    const auto it =
        std::find_if(snapshot.gauges.begin(), snapshot.gauges.end(),
                     [&](const auto& gauge) { return gauge.first == name; });
    ASSERT_NE(it, snapshot.gauges.end()) << name;
    EXPECT_GT(it->second, 0.0) << name;
  }

  // Answers: each Answer* refuses every query of another kind. Each entry
  // pairs an answer with the QuerySpec index of the kind it serves.
  using Answer = std::function<Status(QueryId)>;
  const std::vector<std::pair<size_t, Answer>> answers = {
      {0, [&](QueryId q) { return engine.AnswerJoin(q).status(); }},
      {0, [&](QueryId q) { return engine.AnswerJoinWithReport(q).status(); }},
      {1, [&](QueryId q) {
         return engine.AnswerPointFrequency(q, 3).status();
       }},
      {1, [&](QueryId q) { return engine.AnswerHeavyHitters(q, 1).status(); }},
      {2, [&](QueryId q) { return engine.AnswerDistinctCount(q).status(); }},
      {3, [&](QueryId q) { return engine.AnswerTopK(q).status(); }},
      {4, [&](QueryId q) { return engine.AnswerQuantile(q, 0.5).status(); }},
      {5, [&](QueryId q) { return engine.AnswerRangeSum(q, 0, 7).status(); }},
      {6, [&](QueryId q) { return engine.AnswerChainJoin(q).status(); }},
      {6, [&](QueryId q) {
         return engine.AnswerChainJoinWithReport(q).status();
       }}};
  for (QueryId id = 1; id <= specs.size(); ++id) {
    for (const auto& [kind, answer] : answers) {
      const Status status = answer(id);
      if (kind == specs[id - 1].index()) {
        EXPECT_TRUE(status.ok()) << "query " << id << ": " << status;
      } else {
        EXPECT_EQ(status.code(), StatusCode::kNotFound)
            << "query " << id << " answered as kind " << kind;
      }
    }
  }

  // Health: exactly the join and frequency queries, in id order.
  std::vector<QueryId> probed;
  for (const QueryHealth& query : engine.HealthReport().queries) {
    probed.push_back(query.id);
  }
  EXPECT_EQ(probed, (std::vector<QueryId>{1, 2, 8}));

  engine.Clear();
  EXPECT_EQ(engine.num_queries(), 0u);
  ASSERT_TRUE(engine.RegisterStream({"s", 1u << 8}).ok());
  EXPECT_EQ(*engine.AddQuery(frequency, 1), 1u);
  frequency.stream = "nope";
  EXPECT_EQ(engine.AddQuery(frequency, 1).status().code(),
            StatusCode::kNotFound);
}

TEST(EngineTest, UpdateValidatesStreamAndDomain) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  EXPECT_EQ(engine.Update("nope", {1, 1, 0}).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Update("packets", {1u << 10, 1, 0}).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(engine.Update("packets", {7, 1, 0}).ok());
  StatusOr<int64_t> count = engine.StreamElementCount("packets");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1);
}

TEST(EngineTest, CountJoinTracksExactOnSmallStreams) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  ASSERT_TRUE(engine.RegisterStream(Flows()).ok());
  StatusOr<QueryId> query = engine.AddJoinQuery(BasicJoinSpec(), 42);
  ASSERT_TRUE(query.ok()) << query.status();

  // packets: value 5 x100; flows: value 5 x30 and value 6 x999 (no overlap).
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Update("packets", {5, 1, 0}).ok());
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(engine.Update("flows", {5, 1, 0}).ok());
  }
  for (int i = 0; i < 999; ++i) {
    ASSERT_TRUE(engine.Update("flows", {6, 1, 0}).ok());
  }
  StatusOr<double> answer = engine.AnswerJoin(*query);
  ASSERT_TRUE(answer.ok());
  EXPECT_NEAR(*answer, 3000.0, 300.0);
}

TEST(EngineTest, DeletesFlowThroughToSynopses) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  ASSERT_TRUE(engine.RegisterStream(Flows()).ok());
  StatusOr<QueryId> query = engine.AddJoinQuery(BasicJoinSpec(), 3);
  ASSERT_TRUE(query.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.Update("packets", {9, 1, 0}).ok());
    ASSERT_TRUE(engine.Update("flows", {9, 1, 0}).ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.Update("packets", {9, -1, 0}).ok());
  }
  StatusOr<double> answer = engine.AnswerJoin(*query);
  ASSERT_TRUE(answer.ok());
  EXPECT_DOUBLE_EQ(*answer, 0.0);
}

TEST(EngineTest, SelfJoinQuery) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  SelfJoinQuerySpec spec;
  spec.stream = "packets";
  spec.estimator.kind = core::EstimatorKind::kAgms;
  spec.estimator.space_counters = 512;
  StatusOr<QueryId> query = engine.AddSelfJoinQuery(spec, 5);
  ASSERT_TRUE(query.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine.Update("packets", {3, 1, 0}).ok());
  }
  StatusOr<double> answer = engine.AnswerJoin(*query);
  ASSERT_TRUE(answer.ok());
  EXPECT_NEAR(*answer, 1600.0, 160.0);
}

TEST(EngineTest, SumAggregateUsesMeasureWeights) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  ASSERT_TRUE(engine.RegisterStream(Flows()).ok());
  JoinQuerySpec spec = BasicJoinSpec();
  spec.left_input = AggregateInput::kMeasure;  // SUM over packets' measure
  StatusOr<QueryId> query = engine.AddJoinQuery(spec, 6);
  ASSERT_TRUE(query.ok());
  // Two packets with value 4 carrying byte counts 100 and 250; three flows
  // with value 4. SUM = (100 + 250) * 3 = 1050.
  ASSERT_TRUE(engine.Update("packets", {4, 1, 100}).ok());
  ASSERT_TRUE(engine.Update("packets", {4, 1, 250}).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Update("flows", {4, 1, 0}).ok());
  }
  StatusOr<double> answer = engine.AnswerJoin(*query);
  ASSERT_TRUE(answer.ok());
  EXPECT_NEAR(*answer, 1050.0, 110.0);
}

// A dense value whose product passes 2^63 is answered, never a process
// abort: three measures of 3e9 per side give 9e9 · 9e9 = 8.1e19.
TEST(EngineTest, SumJoinPastInt64Answers) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  ASSERT_TRUE(engine.RegisterStream(Flows()).ok());
  JoinQuerySpec spec = BasicJoinSpec();
  spec.left_input = AggregateInput::kMeasure;
  spec.right_input = AggregateInput::kMeasure;
  StatusOr<QueryId> query = engine.AddJoinQuery(spec, 6);
  ASSERT_TRUE(query.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Update("packets", {7, 1, 3'000'000'000}).ok());
    ASSERT_TRUE(engine.Update("flows", {7, 1, 3'000'000'000}).ok());
  }
  StatusOr<double> answer = engine.AnswerJoin(*query);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_DOUBLE_EQ(*answer, 8.1e19);
  StatusOr<EstimateReport> report = engine.AnswerJoinWithReport(*query);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->estimate, *answer);
  EXPECT_EQ(engine.HealthReport().queries.size(), 1u);
}

TEST(EngineTest, PredicatesFilterUpdates) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  ASSERT_TRUE(engine.RegisterStream(Flows()).ok());
  JoinQuerySpec spec = BasicJoinSpec();
  spec.left_predicate = RangePredicate{0, 99};  // drop packet values >= 100
  StatusOr<QueryId> query = engine.AddJoinQuery(spec, 7);
  ASSERT_TRUE(query.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.Update("packets", {50, 1, 0}).ok());
    ASSERT_TRUE(engine.Update("packets", {500, 1, 0}).ok());
    ASSERT_TRUE(engine.Update("flows", {50, 1, 0}).ok());
    ASSERT_TRUE(engine.Update("flows", {500, 1, 0}).ok());
  }
  StatusOr<double> answer = engine.AnswerJoin(*query);
  ASSERT_TRUE(answer.ok());
  // Without the predicate the join is 800; with it, only value 50 matches.
  EXPECT_NEAR(*answer, 400.0, 40.0);
}

TEST(EngineTest, MultipleQueriesOverSameStream) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  ASSERT_TRUE(engine.RegisterStream(Flows()).ok());
  StatusOr<QueryId> q1 = engine.AddJoinQuery(BasicJoinSpec(), 8);
  JoinQuerySpec agms_spec = BasicJoinSpec();
  agms_spec.estimator.kind = core::EstimatorKind::kAgms;
  StatusOr<QueryId> q2 = engine.AddJoinQuery(agms_spec, 9);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(engine.num_queries(), 2u);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(engine.Update("packets", {8, 1, 0}).ok());
    ASSERT_TRUE(engine.Update("flows", {8, 1, 0}).ok());
  }
  StatusOr<double> a1 = engine.AnswerJoin(*q1);
  StatusOr<double> a2 = engine.AnswerJoin(*q2);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  EXPECT_NEAR(*a1, 3600.0, 360.0);
  EXPECT_NEAR(*a2, 3600.0, 360.0);
}

TEST(EngineTest, FrequencyQueryAnswersPointAndHeavyHitters) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  FrequencyQuerySpec spec;
  spec.stream = "packets";
  spec.space_counters = 4096;
  spec.use_dyadic = true;
  StatusOr<QueryId> query = engine.AddFrequencyQuery(spec, 10);
  ASSERT_TRUE(query.ok()) << query.status();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(engine.Update("packets", {123, 1, 0}).ok());
  }
  for (uint64_t v = 0; v < 64; ++v) {
    ASSERT_TRUE(engine.Update("packets", {v, 1, 0}).ok());
  }
  StatusOr<int64_t> point = engine.AnswerPointFrequency(*query, 123);
  ASSERT_TRUE(point.ok());
  EXPECT_NEAR(*point, 501, 50);
  StatusOr<core::DenseFrequencies> hh = engine.AnswerHeavyHitters(*query, 100);
  ASSERT_TRUE(hh.ok());
  EXPECT_GT(core::LookupDense(*hh, 123), 400);
}

TEST(EngineTest, DistinctCountQueryTracksCardinality) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  DistinctCountQuerySpec spec;
  spec.stream = "packets";
  spec.num_maps = 256;
  StatusOr<QueryId> query = engine.AddDistinctCountQuery(spec, 13);
  ASSERT_TRUE(query.ok()) << query.status();
  // 600 distinct values, each seen multiple times.
  for (int rep = 0; rep < 3; ++rep) {
    for (uint64_t v = 0; v < 600; ++v) {
      ASSERT_TRUE(engine.Update("packets", {v, 1, 0}).ok());
    }
  }
  StatusOr<double> distinct = engine.AnswerDistinctCount(*query);
  ASSERT_TRUE(distinct.ok());
  EXPECT_GT(*distinct, 300.0);
  EXPECT_LT(*distinct, 1200.0);
  EXPECT_EQ(engine.AnswerDistinctCount(9999).status().code(),
            StatusCode::kNotFound);
}

TEST(EngineTest, DistinctCountQueryRequiresKnownStream) {
  Engine engine;
  DistinctCountQuerySpec spec;
  spec.stream = "ghost";
  EXPECT_EQ(engine.AddDistinctCountQuery(spec, 1).status().code(),
            StatusCode::kNotFound);
}

TEST(EngineTest, DistinctCountHonorsPredicate) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  DistinctCountQuerySpec spec;
  spec.stream = "packets";
  spec.num_maps = 256;
  spec.predicate = RangePredicate{0, 99};
  StatusOr<QueryId> query = engine.AddDistinctCountQuery(spec, 14);
  ASSERT_TRUE(query.ok());
  for (uint64_t v = 0; v < 1000; ++v) {
    ASSERT_TRUE(engine.Update("packets", {v, 1, 0}).ok());
  }
  StatusOr<double> distinct = engine.AnswerDistinctCount(*query);
  ASSERT_TRUE(distinct.ok());
  // Only the 100 in-range values count; the FM floor is ~num_maps/phi for
  // tiny cardinalities, so just bound it well below 1000.
  EXPECT_LT(*distinct, 500.0);
}

TEST(EngineTest, TopKQueryTracksHeavyValues) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  TopKQuerySpec spec;
  spec.stream = "packets";
  spec.k = 2;
  StatusOr<QueryId> query = engine.AddTopKQuery(spec, 15);
  ASSERT_TRUE(query.ok()) << query.status();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(engine.Update("packets", {5, 1, 0}).ok());
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine.Update("packets", {9, 1, 0}).ok());
  }
  ASSERT_TRUE(engine.Update("packets", {100, 1, 0}).ok());
  auto top = engine.AnswerTopK(*query);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 2u);
  EXPECT_EQ((*top)[0].first, 5u);
  EXPECT_EQ((*top)[1].first, 9u);
  EXPECT_EQ(engine.AnswerTopK(12345).status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, QuantileQueryAnswersMedian) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  QuantileQuerySpec spec;
  spec.stream = "packets";
  spec.epsilon = 0.05;
  StatusOr<QueryId> query = engine.AddQuantileQuery(spec);
  ASSERT_TRUE(query.ok()) << query.status();
  for (uint64_t v = 0; v < 1000; ++v) {
    ASSERT_TRUE(engine.Update("packets", {v, 1, 0}).ok());
  }
  StatusOr<uint64_t> median = engine.AnswerQuantile(*query, 0.5);
  ASSERT_TRUE(median.ok());
  EXPECT_NEAR(static_cast<double>(*median), 500.0, 110.0);
  EXPECT_EQ(engine.AnswerQuantile(999, 0.5).status().code(),
            StatusCode::kNotFound);
}

TEST(EngineTest, QuantileQueryIgnoresDeletes) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  QuantileQuerySpec spec;
  spec.stream = "packets";
  StatusOr<QueryId> query = engine.AddQuantileQuery(spec);
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(engine.Update("packets", {7, 1, 0}).ok());
  ASSERT_TRUE(engine.Update("packets", {7, -1, 0}).ok());  // ignored by GK
  StatusOr<uint64_t> answer = engine.AnswerQuantile(*query, 0.5);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(*answer, 7u);
}

TEST(EngineTest, RangeSumQueryTracksRangeMass) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  RangeSumQuerySpec spec;
  spec.stream = "packets";
  spec.coefficient_budget = 128;
  StatusOr<QueryId> query = engine.AddRangeSumQuery(spec);
  ASSERT_TRUE(query.ok()) << query.status();
  for (uint64_t v = 100; v < 200; ++v) {
    ASSERT_TRUE(engine.Update("packets", {v, 3, 0}).ok());
  }
  StatusOr<double> in_range = engine.AnswerRangeSum(*query, 100, 199);
  StatusOr<double> outside = engine.AnswerRangeSum(*query, 500, 600);
  ASSERT_TRUE(in_range.ok());
  ASSERT_TRUE(outside.ok());
  EXPECT_NEAR(*in_range, 300.0, 30.0);
  EXPECT_NEAR(*outside, 0.0, 30.0);
  EXPECT_EQ(engine.AnswerRangeSum(4242, 0, 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(engine.AnswerRangeSum(*query, 0, 1u << 12).ok());
}

TEST(EngineTest, RangeSumQueryValidates) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  RangeSumQuerySpec spec;
  spec.stream = "ghost";
  EXPECT_EQ(engine.AddRangeSumQuery(spec).status().code(),
            StatusCode::kNotFound);
  spec.stream = "packets";
  spec.coefficient_budget = 0;
  EXPECT_EQ(engine.AddRangeSumQuery(spec).status().code(),
            StatusCode::kInvalidArgument);
  // Non-power-of-two domains are rejected by the wavelet synopsis.
  ASSERT_TRUE(engine.RegisterStream({"odd", 1000}).ok());
  RangeSumQuerySpec odd_spec;
  odd_spec.stream = "odd";
  EXPECT_FALSE(engine.AddRangeSumQuery(odd_spec).ok());
}

TEST(EngineTest, RangeSumQueryCompressesUnderChurn) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  RangeSumQuerySpec spec;
  spec.stream = "packets";
  spec.coefficient_budget = 16;
  StatusOr<QueryId> query = engine.AddRangeSumQuery(spec);
  ASSERT_TRUE(query.ok());
  // A flat block: compresses to a handful of coefficients, so even budget
  // 16 answers the block's mass well.
  for (int round = 0; round < 4; ++round) {
    for (uint64_t v = 0; v < 512; ++v) {
      ASSERT_TRUE(engine.Update("packets", {v, 1, 0}).ok());
    }
  }
  StatusOr<double> sum = engine.AnswerRangeSum(*query, 0, 511);
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR(*sum, 2048.0, 300.0);
}

TEST(EngineTest, RelationRegistrationValidates) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  EXPECT_FALSE(engine.RegisterRelation({"", 1, 64}).ok());
  EXPECT_FALSE(engine.RegisterRelation({"r", 0, 64}).ok());
  EXPECT_FALSE(engine.RegisterRelation({"r", 3, 64}).ok());
  EXPECT_FALSE(engine.RegisterRelation({"r", 1, 1}).ok());
  // Name collision with a stream is rejected too.
  EXPECT_EQ(engine.RegisterRelation({"packets", 1, 64}).status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(engine.RegisterRelation({"r", 1, 64}).ok());
  EXPECT_EQ(engine.RegisterRelation({"r", 1, 64}).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.num_relations(), 1u);
}

TEST(EngineTest, ChainJoinQueryValidatesShape) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterRelation({"ends", 1, 64}).ok());
  ASSERT_TRUE(engine.RegisterRelation({"mid", 2, 64}).ok());
  ASSERT_TRUE(engine.RegisterRelation({"tail", 1, 64}).ok());

  ChainJoinQuerySpec spec;
  spec.relations = {"ends"};
  EXPECT_FALSE(engine.AddChainJoinQuery(spec, 1).ok());  // too short
  spec.relations = {"ends", "ghost"};
  EXPECT_EQ(engine.AddChainJoinQuery(spec, 1).status().code(),
            StatusCode::kNotFound);
  spec.relations = {"ends", "ends", "tail"};  // middle needs arity 2
  EXPECT_EQ(engine.AddChainJoinQuery(spec, 1).status().code(),
            StatusCode::kInvalidArgument);
  spec.relations = {"ends", "mid", "tail"};
  EXPECT_TRUE(engine.AddChainJoinQuery(spec, 1).ok());
}

TEST(EngineTest, ChainJoinBothMethodsAnswerExactOnSingletons) {
  for (ChainJoinQuerySpec::Method method :
       {ChainJoinQuerySpec::Method::kAgmsGrid,
        ChainJoinQuerySpec::Method::kHashSketch}) {
    Engine engine;
    ASSERT_TRUE(engine.RegisterRelation({"a", 1, 64}).ok());
    ASSERT_TRUE(engine.RegisterRelation({"b", 2, 64}).ok());
    ASSERT_TRUE(engine.RegisterRelation({"c", 1, 64}).ok());
    ChainJoinQuerySpec spec;
    spec.relations = {"a", "b", "c"};
    spec.method = method;
    StatusOr<QueryId> query = engine.AddChainJoinQuery(spec, 9);
    ASSERT_TRUE(query.ok()) << query.status();
    ASSERT_TRUE(engine.UpdateRelation("a", {7}, 4).ok());
    ASSERT_TRUE(engine.UpdateRelation("b", {7, 9}, 3).ok());
    ASSERT_TRUE(engine.UpdateRelation("c", {9}, 2).ok());
    StatusOr<double> answer = engine.AnswerChainJoin(*query);
    ASSERT_TRUE(answer.ok());
    EXPECT_DOUBLE_EQ(*answer, 24.0)
        << (method == ChainJoinQuerySpec::Method::kAgmsGrid ? "grid" : "hash");
  }
}

TEST(EngineTest, UpdateRelationValidates) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterRelation({"r", 2, 64}).ok());
  EXPECT_EQ(engine.UpdateRelation("ghost", {1, 2}, 1).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.UpdateRelation("r", {1}, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.UpdateRelation("r", {1, 64}, 1).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(engine.UpdateRelation("r", {1, 2}, 1).ok());
}

TEST(EngineTest, AnswerValidatesQueryIds) {
  Engine engine;
  EXPECT_EQ(engine.AnswerJoin(99).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.AnswerPointFrequency(99, 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.AnswerHeavyHitters(99, 5).status().code(),
            StatusCode::kNotFound);
}

TEST(EngineTest, HeavyHitterThresholdValidated) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  FrequencyQuerySpec spec;
  spec.stream = "packets";
  StatusOr<QueryId> query = engine.AddFrequencyQuery(spec, 11);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(engine.AnswerHeavyHitters(*query, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, FrequencyQueryHonorsPredicate) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  FrequencyQuerySpec spec;
  spec.stream = "packets";
  spec.predicate = RangePredicate{100, 200};
  spec.use_dyadic = false;
  StatusOr<QueryId> query = engine.AddFrequencyQuery(spec, 12);
  ASSERT_TRUE(query.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.Update("packets", {150, 1, 0}).ok());
    ASSERT_TRUE(engine.Update("packets", {300, 1, 0}).ok());
  }
  EXPECT_NEAR(*engine.AnswerPointFrequency(*query, 150), 50, 10);
  EXPECT_NEAR(*engine.AnswerPointFrequency(*query, 300), 0, 10);
}

// LoadQuerySynopsis sets a synopsis to the merge of shard records: by
// linearity it equals one engine that saw every shard's elements, and a
// second load replaces the first rather than adding to it. Synopses that
// do not merge take exactly one record.
TEST(EngineTest, LoadQuerySynopsisSetsTheMergeOfShardRecords) {
  FrequencyQuerySpec frequency;
  frequency.stream = "packets";
  frequency.space_counters = 512;
  TopKQuerySpec topk;
  topk.stream = "packets";
  topk.k = 4;
  topk.space_counters = 256;
  Engine shards[2], whole, merged;
  for (Engine* engine : {&shards[0], &shards[1], &whole, &merged}) {
    ASSERT_TRUE(engine->RegisterStream(Packets()).ok());
    ASSERT_TRUE(engine->AddFrequencyQuery(frequency, 5).ok());
    ASSERT_TRUE(engine->AddTopKQuery(topk, 6).ok());
  }
  for (uint64_t value = 0; value < 600; ++value) {
    const StreamUpdate update{value % 40, 1, 0};
    ASSERT_TRUE(shards[value % 2].Update("packets", update).ok());
    ASSERT_TRUE(whole.Update("packets", update).ok());
  }
  std::vector<std::string> frequency_records(2), topk_records(2);
  for (int k = 0; k < 2; ++k) {
    ASSERT_TRUE(
        shards[k].SerializeQuerySynopsis(1, &frequency_records[k]).ok());
    ASSERT_TRUE(shards[k].SerializeQuerySynopsis(2, &topk_records[k]).ok());
  }
  for (int load = 0; load < 2; ++load) {
    ASSERT_TRUE(merged.LoadQuerySynopsis(1, frequency_records).ok());
    for (uint64_t value = 0; value < 40; ++value) {
      EXPECT_EQ(*merged.AnswerPointFrequency(1, value),
                *whole.AnswerPointFrequency(1, value))
          << "load " << load << " value " << value;
    }
  }
  EXPECT_EQ(merged.LoadQuerySynopsis(2, topk_records).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      merged.LoadQuerySynopsis(2, std::span(topk_records).first(1)).ok());
  EXPECT_EQ(merged.LoadQuerySynopsis(1, {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(merged.LoadQuerySynopsis(3, frequency_records).code(),
            StatusCode::kNotFound);
}

// Every factory that sizes memory from a spec refuses a shape past the
// deserialization cap before allocating: a registration of any kind or
// size is answered with a Status, never aborts the process, and leaves the
// engine, the shell and the coordinator serving.
TEST(EngineTest, RegistrationsPastTheCapAreRefusedBeforeAllocating) {
  constexpr uint64_t kHuge = 100'000'000'000;  // 10^11
  std::vector<std::pair<std::string, QuerySpec>> cases;
  for (core::EstimatorKind kind :
       {core::EstimatorKind::kAgms, core::EstimatorKind::kHashSketch,
        core::EstimatorKind::kSkimmedSketch, core::EstimatorKind::kCountMin,
        core::EstimatorKind::kSampling}) {
    JoinQuerySpec join = BasicJoinSpec();
    join.estimator.kind = kind;
    join.estimator.space_counters = kHuge;
    cases.emplace_back(std::string("join ") + core::EstimatorKindName(kind),
                       join);
  }
  FrequencyQuerySpec frequency;
  frequency.stream = "packets";
  frequency.space_counters = kHuge;
  cases.emplace_back("freq", frequency);
  DistinctCountQuerySpec distinct;
  distinct.stream = "packets";
  distinct.num_maps = kHuge;
  cases.emplace_back("distinct", distinct);
  TopKQuerySpec topk;
  topk.stream = "packets";
  topk.space_counters = kHuge;
  cases.emplace_back("topk", topk);
  ChainJoinQuerySpec grid;
  grid.relations = {"a", "b", "c"};
  grid.method = ChainJoinQuerySpec::Method::kAgmsGrid;
  grid.num_means = kHuge;
  cases.emplace_back("chain agms grid", grid);
  ChainJoinQuerySpec hash_chain;
  hash_chain.relations = {"a", "b", "c"};  // b is interior: buckets²
  hash_chain.num_buckets = 1'000'000;
  cases.emplace_back("chain hash sketch", hash_chain);

  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  ASSERT_TRUE(engine.RegisterStream(Flows()).ok());
  for (const RelationSpec& relation :
       {RelationSpec{"a", 1, 64}, RelationSpec{"b", 2, 64},
        RelationSpec{"c", 1, 64}}) {
    ASSERT_TRUE(engine.RegisterRelation(relation).ok());
  }
  // No worker listens on the shard, so a frame for it would count a failed
  // attempt.
  dist::CoordinatorOptions options;
  options.rpc_attempts = 1;
  options.rpc_timeout = std::chrono::milliseconds(200);
  dist::Coordinator coordinator(
      {{"s0", ::testing::TempDir() + "/engine_test_no_worker.sock"}},
      options);
  (void)coordinator.RegisterStream(Packets());  // the shard is unreachable
  (void)coordinator.RegisterStream(Flows());
  for (const RelationSpec& relation :
       {RelationSpec{"a", 1, 64}, RelationSpec{"b", 2, 64},
        RelationSpec{"c", 1, 64}}) {
    (void)coordinator.RegisterRelation(relation);
  }
  // Every attempt to reach the shard fails and counts one failure.
  const auto attempts = [&coordinator] {
    return coordinator.ShardStatuses()[0].rpc_failures;
  };
  const uint64_t attempts_before = attempts();
  ASSERT_GT(attempts_before, 0u);  // the registrations above tried the shard

  for (const auto& [what, spec] : cases) {
    const StatusOr<QueryId> refused = engine.AddQuery(spec, 1);
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << what << ": " << refused.status();
    // The fleet answers joins, frequencies and chain joins only; it refuses
    // the rest by kind, and this shape by size (in its own engine), before
    // any frame goes out.
    const bool fleet_kind =
        !std::holds_alternative<DistinctCountQuerySpec>(spec) &&
        !std::holds_alternative<TopKQuerySpec>(spec);
    EXPECT_EQ(coordinator.AddQuery(spec, 1).status().code(),
              fleet_kind ? StatusCode::kInvalidArgument
                         : StatusCode::kUnimplemented)
        << what;
  }
  EXPECT_EQ(attempts(), attempts_before);
  FrequencyQuerySpec normal = frequency;
  normal.space_counters = 4096;
  (void)coordinator.AddQuery(normal, 1);  // accepted, so it tries the shard
  EXPECT_GT(attempts(), attempts_before);

  // The same engine still registers and answers a query of normal size.
  StatusOr<QueryId> query = engine.AddJoinQuery(BasicJoinSpec(), 3);
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_TRUE(engine.Update("packets", {5, 4, 0}).ok());
  ASSERT_TRUE(engine.Update("flows", {5, 3, 0}).ok());
  EXPECT_DOUBLE_EQ(*engine.AnswerJoin(*query), 12.0);

  // The shell reports the refusal on its line and keeps the session going.
  Shell shell;
  std::ostringstream out;
  for (const char* line :
       {"stream f 1024", "freq q f 100000000000", "distinct d f 100000000000",
        "topk t f 10 100000000000", "join j f f skimmed 100000000000",
        "freq q f 4096", "update f 3 2", "point q 3"}) {
    ASSERT_TRUE(shell.ExecuteLine(line, out)) << line;
  }
  std::istringstream replies(out.str());
  std::vector<std::string> lines;
  for (std::string reply; std::getline(replies, reply);) {
    lines.push_back(reply);
  }
  ASSERT_EQ(lines.size(), 8u) << out.str();
  EXPECT_EQ(lines[0], "ok");
  for (size_t i = 1; i <= 4; ++i) {
    EXPECT_EQ(lines[i].rfind("error: INVALID_ARGUMENT: ", 0), 0u) << lines[i];
    EXPECT_NE(lines[i].find("deserialization cap"), std::string::npos)
        << lines[i];
  }
  EXPECT_EQ(lines[5], "ok");
  EXPECT_EQ(lines[6], "ok");
  EXPECT_EQ(lines[7], "ok 2");
}

// The report path skims each side once: its health probes come from the
// estimate's own skims (rendering exactly as a fresh probe would), while a
// health report still takes its own.
TEST(EngineTest, JoinReportSkimsEachSideOnce) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  ASSERT_TRUE(engine.RegisterStream(Flows()).ok());
  StatusOr<QueryId> query = engine.AddJoinQuery(BasicJoinSpec(), 11);
  ASSERT_TRUE(query.ok()) << query.status();
  for (uint64_t value = 0; value < 300; ++value) {
    const int64_t count = 1 + static_cast<int64_t>(value % 3);
    ASSERT_TRUE(engine.Update("packets", {value % 17, count, 0}).ok());
    ASSERT_TRUE(engine.Update("flows", {value % 23, 1, 0}).ok());
  }
  metrics::TraceRecorder& recorder = metrics::TraceRecorder::Global();
  const auto skims = [&recorder](const std::function<void()>& call) {
    (void)recorder.DrainEvents();
    recorder.Enable();
    call();
    recorder.Disable();
    int count = 0;
    for (const metrics::TraceEvent& event : recorder.DrainEvents()) {
      count += event.name == "skimdense" ? 1 : 0;
    }
    return count;
  };
  StatusOr<EstimateReport> report = InternalError("not run");
  EXPECT_EQ(skims([&] { report = engine.AnswerJoinWithReport(*query); }), 2);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_DOUBLE_EQ(report->estimate, *engine.AnswerJoin(*query));
  HealthReport health;
  EXPECT_EQ(skims([&] { health = engine.HealthReport(); }), 2);
  ASSERT_EQ(health.queries.size(), 1u);
  ASSERT_EQ(report->health.size(), 2u);
  ASSERT_EQ(health.queries[0].synopses.size(), 2u);
  for (size_t side = 0; side < 2; ++side) {
    EXPECT_EQ(report->health[side].role, health.queries[0].synopses[side].role);
    EXPECT_EQ(DescribeSynopsisHealth(report->health[side]),
              DescribeSynopsisHealth(health.queries[0].synopses[side]))
        << side;
  }
}

}  // namespace
}  // namespace query
}  // namespace skimjoin
