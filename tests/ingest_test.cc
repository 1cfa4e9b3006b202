// Tests for the batched / sharded ingestion pipeline: UpdateBatch must be
// counter-for-counter identical to scalar Update on every synopsis type,
// ConcurrentIngestor must reproduce the sequential result exactly at every
// Flush and any worker count (linearity makes the parallelism lossless),
// and the engine's one fan-out must leave every query kind's synopsis
// record identical whether fed element by element or in batches, under
// every ingest mode, while tracking ingest counters.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/skimmed_sketch.h"
#include "gtest/gtest.h"
#include "ingest/concurrent_ingestor.h"
#include "query/engine.h"
#include "sketch/agms_sketch.h"
#include "sketch/count_min_sketch.h"
#include "sketch/hash_sketch.h"
#include "stream/stream_element.h"
#include "stream/zipf.h"
#include "util/logging.h"
#include "util/random.h"

namespace skimjoin {
namespace {

using stream::StreamElement;

std::vector<StreamElement> MixedStream(uint64_t count, uint64_t domain,
                                       uint64_t seed) {
  // Inserts, deletes, and heavier SUM-style weights, skewed like a real
  // workload.
  Rng zipf_rng(seed);
  std::vector<StreamElement> elements =
      stream::ZipfDistribution(domain, 1.1).GenerateElements(count, &zipf_rng);
  Rng rng(seed + 1);
  for (StreamElement& element : elements) {
    const uint64_t roll = rng.NextUint64Below(10);
    if (roll == 0) element.weight = -1;
    if (roll == 1) element.weight = static_cast<int64_t>(2 + roll);
  }
  return elements;
}

template <typename Sketch>
std::string Serialized(const Sketch& sketch) {
  std::stringstream buffer;
  EXPECT_TRUE(sketch.SerializeTo(buffer).ok());
  return buffer.str();
}

TEST(UpdateBatchTest, HashSketchMatchesScalarBitForBit) {
  const auto elements = MixedStream(20000, 1u << 14, 7);
  auto scalar = *sketch::HashSketch::Create({7, 128}, 3);
  auto batched = *sketch::HashSketch::Create({7, 128}, 3);
  for (const StreamElement& element : elements) scalar.Update(element);
  batched.UpdateBatch(elements);
  for (uint64_t t = 0; t < 7; ++t) {
    for (uint64_t b = 0; b < 128; ++b) {
      ASSERT_EQ(scalar.Counter(t, b), batched.Counter(t, b))
          << "table " << t << " bucket " << b;
    }
  }
}

TEST(UpdateBatchTest, AgmsSketchMatchesScalarBitForBit) {
  const auto elements = MixedStream(5000, 1u << 12, 11);
  auto scalar = *sketch::AgmsSketch::Create({16, 5}, 3);
  auto batched = *sketch::AgmsSketch::Create({16, 5}, 3);
  for (const StreamElement& element : elements) scalar.Update(element);
  batched.UpdateBatch(elements);
  for (uint64_t i = 0; i < 16; ++i) {
    for (uint64_t j = 0; j < 5; ++j) {
      ASSERT_EQ(scalar.counter(i, j), batched.counter(i, j));
    }
  }
}

TEST(UpdateBatchTest, CountMinMatchesScalarOnPointEstimates) {
  const auto elements = MixedStream(20000, 1u << 12, 13);
  auto scalar = *sketch::CountMinSketch::Create({5, 256}, 3);
  auto batched = *sketch::CountMinSketch::Create({5, 256}, 3);
  for (const StreamElement& element : elements) scalar.Update(element);
  batched.UpdateBatch(elements);
  for (uint64_t v = 0; v < (1u << 12); ++v) {
    ASSERT_EQ(scalar.PointEstimate(v), batched.PointEstimate(v)) << v;
  }
}

TEST(UpdateBatchTest, SkimmedSketchMatchesScalarIncludingDyadicLevels) {
  const auto elements = MixedStream(30000, 1u << 12, 17);
  core::SkimmedSketchConfig config;
  config.domain_size = 1u << 12;
  config.num_buckets = 256;
  config.use_dyadic_skim = true;
  config.dyadic_num_buckets = 64;
  auto scalar = *core::SkimmedSketch::Create(config, 5);
  auto batched = *core::SkimmedSketch::Create(config, 5);
  for (const StreamElement& element : elements) scalar.Update(element);
  batched.UpdateBatch(elements);
  // The serialized text covers every counter of level 0 AND every dyadic
  // level, so string equality is bit-identity of the whole synopsis.
  EXPECT_EQ(Serialized(scalar), Serialized(batched));
}

TEST(UpdateBatchTest, SkimmedSketchBatchDropsOutOfDomainLikeScalar) {
  core::SkimmedSketchConfig config;
  config.domain_size = 1u << 8;
  config.num_buckets = 64;
  auto sketch = *core::SkimmedSketch::Create(config, 5);
  std::vector<StreamElement> elements = {
      {3, 1}, {1u << 9, 1}, {5, 2}, {UINT64_MAX, 1}, {3, 1}};
  sketch.UpdateBatch(elements);
  EXPECT_EQ(sketch.dropped_updates(), 2u);
  EXPECT_EQ(sketch.EstimatePointFrequency(3), 2);
  EXPECT_EQ(sketch.EstimatePointFrequency(5), 2);
}

TEST(UpdateBatchTest, ResetReturnsToFreshState) {
  core::SkimmedSketchConfig config;
  config.domain_size = 1u << 10;
  auto fresh = *core::SkimmedSketch::Create(config, 9);
  auto used = *core::SkimmedSketch::Create(config, 9);
  used.UpdateBatch(MixedStream(5000, 1u << 10, 21));
  used.Update(1u << 11, 1);  // one dropped update
  used.Reset();
  EXPECT_EQ(used.dropped_updates(), 0u);
  EXPECT_EQ(Serialized(fresh), Serialized(used));
}

ingest::ConcurrentIngestOptions Workers(uint64_t num_workers) {
  ingest::ConcurrentIngestOptions options;
  options.num_workers = num_workers;
  return options;
}

TEST(ConcurrentIngestorFlushTest, MatchesSequentialAtAnyWorkerCount) {
  const auto elements = MixedStream(60000, 1u << 12, 23);
  core::SkimmedSketchConfig config;
  config.domain_size = 1u << 12;
  config.num_buckets = 128;
  config.dyadic_num_buckets = 32;

  auto sequential = *core::SkimmedSketch::Create(config, 7);
  for (const StreamElement& element : elements) sequential.Update(element);
  const std::string expected = Serialized(sequential);

  for (uint64_t workers : {1u, 2u, 3u, 4u, 8u}) {
    auto master = *core::SkimmedSketch::Create(config, 7);
    auto ingestor = *ingest::ConcurrentIngestor<core::SkimmedSketch>::Create(
        &master, Workers(workers));
    ingestor->AbsorbBatch(elements);
    ingestor->Flush();
    EXPECT_EQ(Serialized(master), expected) << workers << " workers";
  }
}

TEST(ConcurrentIngestorFlushTest, MultipleBatchesAccumulateAcrossFlushes) {
  const auto elements = MixedStream(40000, 1u << 10, 29);
  auto sequential = *sketch::HashSketch::Create({7, 256}, 1);
  for (const StreamElement& element : elements) sequential.Update(element);

  auto master = *sketch::HashSketch::Create({7, 256}, 1);
  auto ingestor = *ingest::ConcurrentIngestor<sketch::HashSketch>::Create(
      &master, Workers(4));
  const std::span<const StreamElement> all(elements);
  // Two absorbs per flush, two flushes: replicas must reset cleanly between
  // flushes or counters would double.
  ingestor->AbsorbBatch(all.subspan(0, 10000));
  ingestor->AbsorbBatch(all.subspan(10000, 10000));
  ingestor->Flush();
  ingestor->AbsorbBatch(all.subspan(20000, 20000));
  ingestor->Flush();
  EXPECT_EQ(Serialized(master), Serialized(sequential));

  const ingest::IngestStats& stats = ingestor->stats();
  EXPECT_EQ(stats.elements_absorbed, 40000u);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.merges, 2u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(ConcurrentIngestorFlushTest, FoldsReplicaDropCountsIntoStats) {
  core::SkimmedSketchConfig config;
  config.domain_size = 1u << 8;
  config.num_buckets = 64;
  auto master = *core::SkimmedSketch::Create(config, 3);
  auto ingestor = *ingest::ConcurrentIngestor<core::SkimmedSketch>::Create(
      &master, Workers(2));
  std::vector<StreamElement> elements(20000, StreamElement{1, 1});
  elements[7].value = 1u << 9;    // out of domain
  elements[19999].value = 1u << 10;  // out of domain
  ingestor->AbsorbBatch(elements);
  ingestor->Flush();
  EXPECT_EQ(ingestor->stats().elements_dropped, 2u);
  EXPECT_EQ(ingestor->stats().elements_absorbed, 19998u);
  EXPECT_EQ(master.EstimatePointFrequency(1), 19998);
  EXPECT_EQ(master.dropped_updates(), 0u);  // drops stayed in the replicas
}

/// Minimal linear synopsis whose Reset deliberately KEEPS its drop counter,
/// modeling a synopsis that treats drops as a lifetime tally. Replicas
/// copied from a prototype with drops then report drops the ingestor never
/// counted as absorbed.
class StickyDropSynopsis {
 public:
  void Update(const StreamElement& element) {
    if (element.value >= 16) {
      ++dropped_;
    } else {
      total_ += element.weight;
    }
  }
  void UpdateBatch(std::span<const StreamElement> elements) {
    for (const StreamElement& element : elements) Update(element);
  }
  void Merge(const StickyDropSynopsis& other) { total_ += other.total_; }
  void Reset() { total_ = 0; }  // dropped_ intentionally survives
  uint64_t dropped_updates() const { return dropped_; }
  int64_t total() const { return total_; }

 private:
  int64_t total_ = 0;
  uint64_t dropped_ = 0;
};

// Regression: replica drop counts larger than the ingestor's own absorbed
// tally must not underflow stats().elements_absorbed (unsigned) to ~2^64.
// The subtraction saturates at zero instead.
TEST(ConcurrentIngestorFlushTest,
     FlushSaturatesAbsorbedWhenReplicaDropsExceedIt) {
  StickyDropSynopsis shared;
  // Pre-existing drops on the shared synopsis survive each replica's Reset,
  // so the flush sees 3 drops against 1 absorbed element.
  const std::vector<StreamElement> out_of_range = {{99, 1}, {99, 1}, {99, 1}};
  shared.UpdateBatch(out_of_range);
  ASSERT_EQ(shared.dropped_updates(), 3u);

  auto ingestor =
      ingest::ConcurrentIngestor<StickyDropSynopsis>::Create(&shared,
                                                             Workers(2));
  ASSERT_TRUE(ingestor.ok());
  const std::vector<StreamElement> one = {{1, 1}};
  (*ingestor)->AbsorbBatch(one);
  (*ingestor)->Flush();

  const ingest::IngestStats& stats = (*ingestor)->stats();
  EXPECT_EQ(stats.elements_absorbed, 0u);  // saturated, not ~2^64
  EXPECT_EQ(stats.elements_dropped, 3u);
  EXPECT_EQ(shared.total(), 1);
}

// Every stream query kind over two streams, fed element by element and in
// batches of 1, 7 and 4096 under every ingest mode: each synopsis record
// must equal the inline per-element engine's byte for byte.
TEST(EngineBatchTest, UpdateBatchMatchesScalarUpdates) {
  const uint64_t kDomain = 1u << 10;
  auto updates_for = [&](uint64_t seed) {
    std::vector<query::StreamUpdate> updates;
    for (const StreamElement& element : MixedStream(6000, kDomain, seed)) {
      updates.push_back({element.value, element.weight, element.weight * 2});
    }
    // A few out-of-domain arrivals: dropped and counted, never fed.
    for (size_t i = 5; i < updates.size(); i += 997) {
      updates[i].value = kDomain + i;
    }
    return updates;
  };
  const std::vector<query::StreamUpdate> streams[2] = {updates_for(31),
                                                       updates_for(37)};
  const char* const kNames[2] = {"s", "t"};

  struct Mode {
    const char* name;
    query::Engine::IngestOptions options;
  };
  const Mode modes[] = {
      {"inline", {}},
      {"shards=4", {.shards = 4}},
      {"concurrent+flush", {.shards = 2, .concurrent = true}},
  };
  constexpr size_t kPerElement = 0;
  const size_t feeds[] = {kPerElement, 1, 7, 4096};

  // The records of every query, then each stream's element count and
  // absorbed / dropped tallies.
  auto build = [&](const query::Engine::IngestOptions& options,
                   size_t batch) {
    query::Engine engine;
    SKIMJOIN_CHECK_OK(engine.SetIngestOptions(options));
    for (const char* name : kNames) {
      SKIMJOIN_CHECK(engine.RegisterStream({name, kDomain}).ok());
    }
    query::JoinQuerySpec join;
    join.left_stream = "s";
    join.right_stream = "t";
    join.left_input = query::AggregateInput::kMeasure;
    join.left_predicate = query::RangePredicate{0, kDomain / 2 - 1};
    query::SelfJoinQuerySpec self_join;
    self_join.stream = "s";
    query::FrequencyQuerySpec freq;
    freq.stream = "s";
    freq.predicate = query::RangePredicate{0, 255};
    query::DistinctCountQuerySpec distinct;
    distinct.stream = "t";
    query::TopKQuerySpec top_k;
    top_k.stream = "s";
    query::QuantileQuerySpec quantile;
    quantile.stream = "t";
    query::RangeSumQuerySpec range_sum;
    range_sum.stream = "s";
    range_sum.coefficient_budget = 64;
    std::vector<query::QueryId> ids = {
        *engine.AddJoinQuery(join, 5),
        *engine.AddSelfJoinQuery(self_join, 6),
        *engine.AddFrequencyQuery(freq, 7),
        *engine.AddDistinctCountQuery(distinct, 8),
        *engine.AddTopKQuery(top_k, 9),
        *engine.AddQuantileQuery(quantile),
        *engine.AddRangeSumQuery(range_sum),
    };

    const size_t step = batch == kPerElement ? 1 : batch;
    for (size_t at = 0; at < streams[0].size(); at += step) {
      for (int s = 0; s < 2; ++s) {
        const std::span<const query::StreamUpdate> chunk =
            std::span<const query::StreamUpdate>(streams[s]).subspan(
                at, std::min(step, streams[s].size() - at));
        if (batch != kPerElement) {
          SKIMJOIN_CHECK_OK(engine.UpdateBatch(kNames[s], chunk));
          continue;
        }
        const Status status = engine.Update(kNames[s], chunk[0]);
        EXPECT_EQ(status.code(), chunk[0].value < kDomain
                                     ? StatusCode::kOk
                                     : StatusCode::kOutOfRange);
      }
    }
    engine.FlushIngest();

    std::vector<std::string> records(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      SKIMJOIN_CHECK_OK(engine.SerializeQuerySynopsis(ids[i], &records[i]));
    }
    for (const char* name : kNames) {
      const ingest::IngestStats stats = *engine.StreamIngestStats(name);
      records.push_back(std::to_string(*engine.StreamElementCount(name)) +
                        " " + std::to_string(stats.elements_absorbed) + " " +
                        std::to_string(stats.elements_dropped));
    }
    return records;
  };

  const std::vector<std::string> reference = build({}, kPerElement);
  for (const Mode& mode : modes) {
    for (const size_t batch : feeds) {
      if (batch == kPerElement && std::string(mode.name) == "inline") continue;
      SCOPED_TRACE(std::string(mode.name) + (batch == kPerElement
                                                  ? " per-element Update"
                                                  : " UpdateBatch of " +
                                                        std::to_string(batch)));
      const std::vector<std::string> records = build(mode.options, batch);
      ASSERT_EQ(records.size(), reference.size());
      for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_TRUE(records[i] == reference[i]) << "record " << i;
      }
    }
  }
}

TEST(EngineBatchTest, DropsOutOfDomainAndCountsThem) {
  query::Engine engine;
  ASSERT_TRUE(engine.RegisterStream({"s", 256}).ok());
  query::FrequencyQuerySpec freq;
  freq.stream = "s";
  auto fq = engine.AddFrequencyQuery(freq, 1);
  ASSERT_TRUE(fq.ok());

  std::vector<query::StreamUpdate> updates = {
      {5, 1, 0}, {512, 1, 0}, {5, 1, 0}, {UINT64_MAX, 3, 0}};
  ASSERT_TRUE(engine.UpdateBatch("s", updates).ok());

  auto stats = engine.StreamIngestStats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->batches, 1u);
  EXPECT_EQ(stats->elements_absorbed, 2u);
  EXPECT_EQ(stats->elements_dropped, 2u);
  EXPECT_EQ(*engine.AnswerPointFrequency(*fq, 5), 2);
  EXPECT_EQ(*engine.StreamElementCount("s"), 2);

  // The scalar path still reports the error, and counts the drop.
  EXPECT_EQ(engine.Update("s", {1000, 1, 0}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.StreamIngestStats("s")->elements_dropped, 3u);
}

TEST(EngineBatchTest, UnknownStreamAndBadShardCountRejected) {
  query::Engine engine;
  std::vector<query::StreamUpdate> updates = {{1, 1, 0}};
  EXPECT_EQ(engine.UpdateBatch("nope", updates).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.SetIngestOptions({.shards = 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.StreamIngestStats("nope").ok());
}

}  // namespace
}  // namespace skimjoin
