// Correctness tests for the engine's epoch-invalidated answer cache
// (DESIGN.md §11): cached answers must be bit-identical to fresh
// recomputation, a single-element update to any participating stream must
// invalidate, a concurrent-ingest flush must invalidate point answers, and
// a checkpoint/restore round trip must drop the cache and re-seed epochs
// without changing any answer.

#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "query/engine.h"
#include "util/metrics.h"
#include "util/random.h"

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

FrequencyQuerySpec BasicFreqSpec() {
  FrequencyQuerySpec spec;
  spec.stream = "packets";
  spec.space_counters = 512;
  return spec;
}

void FeedBoth(Engine* engine, uint64_t seed, int n) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        engine->Update("packets", {rng.NextUint64Below(1u << 10), 1, 0}).ok());
    ASSERT_TRUE(
        engine->Update("flows", {rng.NextUint64Below(1u << 10), 1, 0}).ok());
  }
}

Engine::ReadPathOptions CacheOn() {
  Engine::ReadPathOptions options;
  options.use_query_cache = true;
  return options;
}

TEST(QueryCacheTest, CachedJoinAnswerBitIdenticalToFresh) {
  Engine cached, fresh;
  for (Engine* engine : {&cached, &fresh}) {
    ASSERT_TRUE(engine->RegisterStream(Packets()).ok());
    ASSERT_TRUE(engine->RegisterStream(Flows()).ok());
    ASSERT_TRUE(engine->AddJoinQuery(BasicJoinSpec(), 42).ok());
    FeedBoth(engine, 777, 500);
  }
  cached.SetReadPathOptions(CacheOn());

  StatusOr<double> miss = cached.AnswerJoin(1);
  StatusOr<double> hit = cached.AnswerJoin(1);
  StatusOr<double> reference = fresh.AnswerJoin(1);
  ASSERT_TRUE(miss.ok() && hit.ok() && reference.ok());
  EXPECT_EQ(*miss, *reference);  // bit-identical, not just close
  EXPECT_EQ(*hit, *reference);

  StatusOr<Engine::QueryCacheStats> stats = cached.QueryCacheStatsFor(1);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->enabled);
  EXPECT_EQ(stats->hits, 1u);
  EXPECT_EQ(stats->misses, 1u);
  EXPECT_EQ(stats->invalidations, 0u);
}

TEST(QueryCacheTest, SingleElementUpdateToEitherStreamInvalidates) {
  Engine cached, fresh;
  for (Engine* engine : {&cached, &fresh}) {
    ASSERT_TRUE(engine->RegisterStream(Packets()).ok());
    ASSERT_TRUE(engine->RegisterStream(Flows()).ok());
    ASSERT_TRUE(engine->AddJoinQuery(BasicJoinSpec(), 42).ok());
    FeedBoth(engine, 888, 300);
  }
  cached.SetReadPathOptions(CacheOn());

  ASSERT_TRUE(cached.AnswerJoin(1).ok());  // miss, stores
  uint64_t expected_invalidations = 0;
  for (const std::string& stream : {std::string("packets"),
                                    std::string("flows")}) {
    ASSERT_TRUE(cached.Update(stream, {3, 1, 0}).ok());
    ASSERT_TRUE(fresh.Update(stream, {3, 1, 0}).ok());
    StatusOr<double> recomputed = cached.AnswerJoin(1);
    StatusOr<double> reference = fresh.AnswerJoin(1);
    ASSERT_TRUE(recomputed.ok() && reference.ok());
    EXPECT_EQ(*recomputed, *reference) << "after updating " << stream;
    ++expected_invalidations;
    StatusOr<Engine::QueryCacheStats> stats = cached.QueryCacheStatsFor(1);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->invalidations, expected_invalidations)
        << "after updating " << stream;
  }
}

TEST(QueryCacheTest, PointAnswersCachedPerValueAndInvalidated) {
  Engine cached, fresh;
  for (Engine* engine : {&cached, &fresh}) {
    ASSERT_TRUE(engine->RegisterStream(Packets()).ok());
    ASSERT_TRUE(engine->RegisterStream(Flows()).ok());
    ASSERT_TRUE(engine->AddFrequencyQuery(BasicFreqSpec(), 9).ok());
    ASSERT_TRUE(engine->AddFrequencyQuery(BasicFreqSpec(), 10).ok());
    FeedBoth(engine, 999, 400);
  }
  cached.SetReadPathOptions(CacheOn());

  for (uint64_t value : {7u, 7u, 11u}) {  // miss, hit, miss
    StatusOr<int64_t> answer = cached.AnswerPointFrequency(1, value);
    StatusOr<int64_t> reference = fresh.AnswerPointFrequency(1, value);
    ASSERT_TRUE(answer.ok() && reference.ok());
    EXPECT_EQ(*answer, *reference) << "value " << value;
  }
  StatusOr<Engine::QueryCacheStats> stats = cached.QueryCacheStatsFor(1);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->hits, 1u);
  EXPECT_EQ(stats->misses, 2u);

  // Entries are scoped per query: the other query's first read of 7 misses.
  StatusOr<int64_t> other = cached.AnswerPointFrequency(2, 7);
  StatusOr<int64_t> other_reference = fresh.AnswerPointFrequency(2, 7);
  ASSERT_TRUE(other.ok() && other_reference.ok());
  EXPECT_EQ(*other, *other_reference);
  stats = cached.QueryCacheStatsFor(2);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->hits, 0u);
  EXPECT_EQ(stats->misses, 1u);

  // An update to the participating stream invalidates every cached value;
  // the invalidated read counts as a miss too.
  ASSERT_TRUE(cached.Update("packets", {7, 1, 0}).ok());
  ASSERT_TRUE(fresh.Update("packets", {7, 1, 0}).ok());
  StatusOr<int64_t> recomputed = cached.AnswerPointFrequency(1, 7);
  StatusOr<int64_t> reference = fresh.AnswerPointFrequency(1, 7);
  ASSERT_TRUE(recomputed.ok() && reference.ok());
  EXPECT_EQ(*recomputed, *reference);
  stats = cached.QueryCacheStatsFor(1);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->invalidations, 1u);
  EXPECT_EQ(stats->misses, 3u);
  EXPECT_EQ(stats->hits, 1u);
}

// A synopsis load moves no stream epoch, so a join answer cached before it
// would still pass its guard: LoadQuerySynopsis drops the query's cached
// answers, and the next reads answer from the loaded synopses.
TEST(QueryCacheTest, LoadQuerySynopsisDropsCachedAnswers) {
  Engine cached, other;
  for (Engine* engine : {&cached, &other}) {
    ASSERT_TRUE(engine->RegisterStream(Packets()).ok());
    ASSERT_TRUE(engine->RegisterStream(Flows()).ok());
    ASSERT_TRUE(engine->AddJoinQuery(BasicJoinSpec(), 42).ok());
    ASSERT_TRUE(engine->AddFrequencyQuery(BasicFreqSpec(), 9).ok());
  }
  FeedBoth(&cached, 111, 300);
  FeedBoth(&other, 222, 600);
  cached.SetReadPathOptions(CacheOn());
  StatusOr<double> join_before = cached.AnswerJoin(1);
  StatusOr<int64_t> point_before = cached.AnswerPointFrequency(2, 7);
  StatusOr<double> join_loaded = other.AnswerJoin(1);
  StatusOr<int64_t> point_loaded = other.AnswerPointFrequency(2, 7);
  ASSERT_TRUE(join_before.ok() && point_before.ok() && join_loaded.ok() &&
              point_loaded.ok());
  ASSERT_NE(*join_before, *join_loaded);

  for (QueryId id : {QueryId{1}, QueryId{2}}) {
    std::string record;
    ASSERT_TRUE(other.SerializeQuerySynopsis(id, &record).ok());
    ASSERT_TRUE(cached.LoadQuerySynopsis(id, std::span(&record, 1)).ok());
  }
  StatusOr<double> join_after = cached.AnswerJoin(1);
  StatusOr<int64_t> point_after = cached.AnswerPointFrequency(2, 7);
  ASSERT_TRUE(join_after.ok() && point_after.ok());
  EXPECT_EQ(*join_after, *join_loaded);
  EXPECT_EQ(*point_after, *point_loaded);
  for (QueryId id : {QueryId{1}, QueryId{2}}) {
    StatusOr<Engine::QueryCacheStats> stats = cached.QueryCacheStatsFor(id);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->hits, 0u) << "query " << id;
    EXPECT_EQ(stats->misses, 2u) << "query " << id;
  }
}

// Across rounds of writes between reads, cached join and point answers
// must stay bit-identical to an uncached engine through every round.
TEST(QueryCacheTest, CachedAnswersStayBitIdenticalAcrossUpdateRounds) {
  Engine tested, reference;
  for (Engine* engine : {&tested, &reference}) {
    ASSERT_TRUE(engine->RegisterStream(Packets()).ok());
    ASSERT_TRUE(engine->RegisterStream(Flows()).ok());
    ASSERT_TRUE(engine->AddFrequencyQuery(BasicFreqSpec(), 5).ok());
    ASSERT_TRUE(engine->AddJoinQuery(BasicJoinSpec(), 6).ok());
  }
  tested.SetReadPathOptions(CacheOn());

  Rng rng(1717);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 150; ++i) {
      const uint64_t value = rng.NextUint64Below(1u << 10);
      ASSERT_TRUE(tested.Update("packets", {value, 1, 0}).ok());
      ASSERT_TRUE(reference.Update("packets", {value, 1, 0}).ok());
      ASSERT_TRUE(tested.Update("flows", {value, 1, 0}).ok());
      ASSERT_TRUE(reference.Update("flows", {value, 1, 0}).ok());
    }
    for (int repeat = 0; repeat < 3; ++repeat) {  // hit the cache on 2nd/3rd
      StatusOr<double> tested_join = tested.AnswerJoin(2);
      StatusOr<double> reference_join = reference.AnswerJoin(2);
      ASSERT_TRUE(tested_join.ok() && reference_join.ok());
      ASSERT_EQ(*tested_join, *reference_join) << "round " << round;
      const uint64_t value = rng.NextUint64Below(1u << 10);
      StatusOr<int64_t> tested_point =
          tested.AnswerPointFrequency(1, value);
      StatusOr<int64_t> reference_point =
          reference.AnswerPointFrequency(1, value);
      ASSERT_TRUE(tested_point.ok() && reference_point.ok());
      ASSERT_EQ(*tested_point, *reference_point) << "round " << round;
    }
  }
}

// Concurrent ingestion moves a frequency sketch when a propagation or
// FlushIngest merges the workers' replicas, not when UpdateBatch accepts
// the batch. A point answer cached before the flush must not outlive it:
// after FlushIngest answers are exact (DESIGN.md §13).
TEST(QueryCacheTest, PointAnswerCachedBeforeFlushIsInvalidatedByIt) {
  Engine::IngestOptions ingest;
  ingest.shards = 2;
  ingest.concurrent = true;
  ingest.propagation_interval_elements = uint64_t{1} << 30;
  ingest.max_lag_elements = uint64_t{1} << 30;
  Engine cached, uncached;
  const std::vector<StreamUpdate> sevens(4096, StreamUpdate{7, 1, 0});
  for (Engine* engine : {&cached, &uncached}) {
    ASSERT_TRUE(engine->RegisterStream(Packets()).ok());
    ASSERT_TRUE(engine->AddFrequencyQuery(BasicFreqSpec(), 9).ok());
    ASSERT_TRUE(engine->SetIngestOptions(ingest).ok());
    ASSERT_TRUE(engine->UpdateBatch("packets", sevens).ok());
  }
  cached.SetReadPathOptions(CacheOn());
  // Nothing propagates before the flush at these knobs, so this caches the
  // pre-flush snapshot.
  ASSERT_TRUE(cached.AnswerPointFrequency(1, 7).ok());

  cached.FlushIngest();
  uncached.FlushIngest();
  StatusOr<int64_t> after = cached.AnswerPointFrequency(1, 7);
  StatusOr<int64_t> reference = uncached.AnswerPointFrequency(1, 7);
  ASSERT_TRUE(after.ok() && reference.ok());
  EXPECT_EQ(*reference, 4096);  // one distinct value: the estimate is exact
  EXPECT_EQ(*after, *reference);
}

TEST(QueryCacheTest, SurvivesCheckpointRestoreWithCacheDropped) {
  const std::string path = ::testing::TempDir() + "query_cache_restore_ckpt";
  Engine original;
  ASSERT_TRUE(original.RegisterStream(Packets()).ok());
  ASSERT_TRUE(original.RegisterStream(Flows()).ok());
  ASSERT_TRUE(original.AddJoinQuery(BasicJoinSpec(), 42).ok());
  ASSERT_TRUE(original.AddFrequencyQuery(BasicFreqSpec(), 9).ok());
  FeedBoth(&original, 555, 400);
  original.SetReadPathOptions(CacheOn());
  StatusOr<double> join_before = original.AnswerJoin(1);
  StatusOr<int64_t> point_before = original.AnswerPointFrequency(2, 7);
  ASSERT_TRUE(join_before.ok() && point_before.ok());
  ASSERT_TRUE(original.SaveCheckpoint(path).ok());

  Engine restored;
  StatusOr<RestoreReport> report = restored.RestoreCheckpoint(path);
  ASSERT_TRUE(report.ok()) << report.status();
  restored.SetReadPathOptions(CacheOn());

  // First answers after restore come from recomputation (the cache does not
  // survive the round trip) and must be bit-identical to pre-checkpoint.
  StatusOr<double> join_after = restored.AnswerJoin(1);
  StatusOr<int64_t> point_after = restored.AnswerPointFrequency(2, 7);
  ASSERT_TRUE(join_after.ok() && point_after.ok());
  EXPECT_EQ(*join_after, *join_before);
  EXPECT_EQ(*point_after, *point_before);
  StatusOr<Engine::QueryCacheStats> stats = restored.QueryCacheStatsFor(1);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->hits, 0u);  // nothing cached crossed the checkpoint

  // Epochs were re-seeded from the restored absorbed counters: storing and
  // invalidating keep working exactly as before the round trip.
  ASSERT_TRUE(restored.AnswerJoin(1).ok());  // hit now
  stats = restored.QueryCacheStatsFor(1);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->hits, 1u);
  ASSERT_TRUE(restored.Update("packets", {3, 1, 0}).ok());
  ASSERT_TRUE(original.Update("packets", {3, 1, 0}).ok());
  StatusOr<double> join_updated = restored.AnswerJoin(1);
  StatusOr<double> join_original = original.AnswerJoin(1);
  ASSERT_TRUE(join_updated.ok() && join_original.ok());
  EXPECT_EQ(*join_updated, *join_original);
  stats = restored.QueryCacheStatsFor(1);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->invalidations, 1u);
}

TEST(QueryCacheTest, StatsRejectUnknownAndNonCachedQueries) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  EXPECT_EQ(engine.QueryCacheStatsFor(99).status().code(),
            StatusCode::kNotFound);
  DistinctCountQuerySpec distinct;
  distinct.stream = "packets";
  distinct.num_maps = 16;
  StatusOr<QueryId> id = engine.AddDistinctCountQuery(distinct, 1);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(engine.QueryCacheStatsFor(*id).status().code(),
            StatusCode::kNotFound);
}

TEST(QueryCacheTest, CacheCountersAppearInMetricsSnapshot) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  ASSERT_TRUE(engine.RegisterStream(Flows()).ok());
  ASSERT_TRUE(engine.AddJoinQuery(BasicJoinSpec(), 42).ok());
  engine.SetReadPathOptions(CacheOn());
  FeedBoth(&engine, 123, 50);
  ASSERT_TRUE(engine.AnswerJoin(1).ok());
  ASSERT_TRUE(engine.AnswerJoin(1).ok());

  const metrics::Snapshot snapshot = engine.MetricsSnapshot();
  uint64_t hits = 0, misses = 0;
  bool saw_hits = false, saw_misses = false, saw_invalidations = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "query.1.cache_hits") {
      saw_hits = true;
      hits = value;
    } else if (name == "query.1.cache_misses") {
      saw_misses = true;
      misses = value;
    } else if (name == "query.1.cache_invalidations") {
      saw_invalidations = true;
    }
  }
  EXPECT_TRUE(saw_hits && saw_misses && saw_invalidations);
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(misses, 1u);
}

TEST(QueryCacheTest, DisablingCacheDropsEntries) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream(Packets()).ok());
  ASSERT_TRUE(engine.RegisterStream(Flows()).ok());
  ASSERT_TRUE(engine.AddJoinQuery(BasicJoinSpec(), 42).ok());
  FeedBoth(&engine, 321, 100);
  engine.SetReadPathOptions(CacheOn());
  ASSERT_TRUE(engine.AnswerJoin(1).ok());  // miss, stores

  engine.SetReadPathOptions(Engine::ReadPathOptions{});  // off: drops
  engine.SetReadPathOptions(CacheOn());
  ASSERT_TRUE(engine.AnswerJoin(1).ok());  // must be a miss again
  StatusOr<Engine::QueryCacheStats> stats = engine.QueryCacheStatsFor(1);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->hits, 0u);
  EXPECT_EQ(stats->misses, 2u);
}

}  // namespace
}  // namespace query
}  // namespace skimjoin
