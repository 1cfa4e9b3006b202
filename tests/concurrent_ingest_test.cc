// Concurrency-plane tests (DESIGN.md §13): the persistent WorkerPool and
// the relaxed-consistency ConcurrentIngestor.
// Three properties matter:
//   1. EXACTNESS — after Flush, the shared synopsis is counter-for-counter
//      identical to a sequential ingest (linearity makes relaxation
//      lossless at the linearization point).
//   2. BOUNDED-STALENESS CONSISTENCY — a reader under ReaderLock can never
//      observe a partially-propagated replica. For an insert-only CountMin
//      stream every table's counter-row sum equals the total propagated
//      weight, so unequal row sums would be direct evidence of a torn
//      propagation.
//   3. RACE-FREEDOM — the torture test drives concurrent AbsorbBatch /
//      reader / Flush traffic and is built under TSan in CI (the sanitize
//      matrix), where any unsynchronized access to replicas, pending
//      counts, or the shared synopsis becomes a hard failure.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "ingest/concurrent_ingestor.h"
#include "ingest/worker_pool.h"
#include "query/engine.h"
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
  Rng zipf_rng(seed);
  std::vector<StreamElement> elements =
      stream::ZipfDistribution(domain, 1.1).GenerateElements(count, &zipf_rng);
  Rng rng(seed + 1);
  for (StreamElement& element : elements) {
    const uint64_t roll = rng.NextUint64Below(10);
    if (roll == 0) element.weight = -1;
    if (roll == 1) element.weight = 3;
  }
  return elements;
}

// ---- WorkerPool ------------------------------------------------------------

TEST(WorkerPoolTest, RunsShardAddressedTasksToCompletion) {
  ingest::WorkerPool pool(4);
  ASSERT_EQ(4u, pool.num_workers());
  std::vector<uint64_t> per_worker(4, 0);
  for (int round = 0; round < 50; ++round) {
    for (uint64_t w = 0; w < 4; ++w) {
      pool.Submit(w, [&per_worker, w] { per_worker[w] += w + 1; });
    }
    pool.Barrier();  // Also the happens-before edge for reading per_worker.
  }
  for (uint64_t w = 0; w < 4; ++w) EXPECT_EQ(50 * (w + 1), per_worker[w]);
}

TEST(WorkerPoolTest, BarrierWithNothingSubmittedReturnsImmediately) {
  ingest::WorkerPool pool(2);
  pool.Barrier();
  pool.Barrier();
}

TEST(WorkerPoolTest, DestructorDrainsSubmittedTasks) {
  std::atomic<uint64_t> ran{0};
  {
    ingest::WorkerPool pool(3);
    for (int i = 0; i < 300; ++i) {
      pool.Submit(static_cast<uint64_t>(i), [&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No Barrier: ~WorkerPool must finish the queue, not abandon it.
  }
  EXPECT_EQ(300u, ran.load());
}

// ---- ConcurrentIngestor ----------------------------------------------------

TEST(ConcurrentIngestorTest, CreateValidatesArguments) {
  auto sketch = *sketch::HashSketch::Create({5, 64}, 1);
  EXPECT_FALSE(ingest::ConcurrentIngestor<sketch::HashSketch>::Create(
                   nullptr, {})
                   .ok());
  ingest::ConcurrentIngestOptions zero_workers;
  zero_workers.num_workers = 0;
  EXPECT_FALSE(ingest::ConcurrentIngestor<sketch::HashSketch>::Create(
                   &sketch, zero_workers)
                   .ok());
  // Refused before any worker starts: these counts never reach the pool.
  for (const uint64_t workers :
       {ingest::kMaxIngestWorkers + 1, uint64_t{1} << 40, UINT64_MAX}) {
    ingest::ConcurrentIngestOptions too_many;
    too_many.num_workers = workers;
    const auto made = ingest::ConcurrentIngestor<sketch::HashSketch>::Create(
        &sketch, too_many);
    ASSERT_FALSE(made.ok()) << workers;
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
  }
  ingest::ConcurrentIngestOptions zero_interval;
  zero_interval.propagation_interval_elements = 0;
  EXPECT_FALSE(ingest::ConcurrentIngestor<sketch::HashSketch>::Create(
                   &sketch, zero_interval)
                   .ok());
}

TEST(ConcurrentIngestorTest, ManyFlushRoundsAcrossPoolReuseStayExact) {
  auto sequential = *sketch::HashSketch::Create({7, 128}, 11);
  auto master = *sketch::HashSketch::Create({7, 128}, 11);
  ingest::ConcurrentIngestOptions options;
  options.num_workers = 4;
  auto ingestor = *ingest::ConcurrentIngestor<sketch::HashSketch>::Create(
      &master, options);
  // Many absorb/flush rounds through the same pool: exactness must survive
  // worker-thread reuse, including batches small enough to go whole to one
  // worker.
  for (uint64_t round = 0; round < 6; ++round) {
    const auto batch = MixedStream(round % 2 == 0 ? 40000 : 100, 1u << 14,
                                   /*seed=*/100 + round);
    sequential.UpdateBatch(batch);
    ingestor->AbsorbBatch(batch);
    if (round % 2 == 1) ingestor->Flush();
  }
  ingestor->Flush();
  EXPECT_EQ(sequential.CounterArray().size(), master.CounterArray().size());
  for (size_t i = 0; i < sequential.CounterArray().size(); ++i) {
    ASSERT_EQ(sequential.CounterArray()[i], master.CounterArray()[i]) << i;
  }
}

TEST(ConcurrentIngestorTest, FlushIsExactAgainstSequentialIngest) {
  auto sequential = *sketch::HashSketch::Create({7, 128}, 5);
  auto shared = *sketch::HashSketch::Create({7, 128}, 5);
  ingest::ConcurrentIngestOptions options;
  options.num_workers = 3;
  options.propagation_interval_elements = 512;  // Force mid-stream epochs.
  auto ingestor = *ingest::ConcurrentIngestor<sketch::HashSketch>::Create(
      &shared, options);
  for (uint64_t round = 0; round < 8; ++round) {
    const auto batch =
        MixedStream(round % 3 == 0 ? 123 : 20000, 1u << 14, 40 + round);
    sequential.UpdateBatch(batch);
    ingestor->AbsorbBatch(batch);
  }
  ingestor->Flush();
  EXPECT_EQ(0u, ingestor->epoch_lag());
  EXPECT_GT(ingestor->epoch(), 0u);
  {
    auto lock = ingestor->ReaderLock();
    ASSERT_EQ(sequential.CounterArray().size(),
              ingestor->shared().CounterArray().size());
    for (size_t i = 0; i < sequential.CounterArray().size(); ++i) {
      ASSERT_EQ(sequential.CounterArray()[i],
                ingestor->shared().CounterArray()[i])
          << i;
    }
  }
}

TEST(ConcurrentIngestorTest, EpochLagTracksUnpropagatedElements) {
  auto shared = *sketch::HashSketch::Create({5, 64}, 2);
  ingest::ConcurrentIngestOptions options;
  options.num_workers = 2;
  // Interval far above everything submitted: nothing propagates until
  // Flush, so lag must equal the exact element count.
  options.propagation_interval_elements = 1u << 30;
  auto ingestor = *ingest::ConcurrentIngestor<sketch::HashSketch>::Create(
      &shared, options);
  const auto batch = MixedStream(5000, 1u << 12, 9);
  ingestor->AbsorbBatch(batch);
  EXPECT_LE(ingestor->epoch_lag(), 5000u);
  ingestor->Flush();
  EXPECT_EQ(0u, ingestor->epoch_lag());
  EXPECT_EQ(5000u, ingestor->stats().elements_absorbed);
}

/// The bounded-staleness consistency invariant: insert-only weight-1
/// traffic into CountMin adds exactly 1 to one bucket PER TABLE per
/// element, so under any ReaderLock snapshot all table-row sums are equal
/// (and equal the propagated element count). A torn propagation — some
/// rows of a replica merged, others not — is exactly what would break the
/// equality.
TEST(ConcurrentIngestorTest, ReadersNeverObservePartialPropagation) {
  constexpr uint64_t kTables = 5;
  constexpr uint64_t kBuckets = 64;
  constexpr uint64_t kBatch = 4096;
  constexpr uint64_t kBatches = 64;
  auto shared = *sketch::CountMinSketch::Create({kTables, kBuckets}, 3);
  ingest::ConcurrentIngestOptions options;
  options.num_workers = 2;
  options.propagation_interval_elements = 1000;  // Many mid-stream epochs.
  auto ingestor = *ingest::ConcurrentIngestor<sketch::CountMinSketch>::Create(
      &shared, options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> snapshots{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto lock = ingestor->ReaderLock();
        const auto counters = ingestor->shared().CounterArray();
        int64_t first_row = 0;
        for (uint64_t b = 0; b < kBuckets; ++b) first_row += counters[b];
        for (uint64_t t = 1; t < kTables; ++t) {
          int64_t row = 0;
          for (uint64_t b = 0; b < kBuckets; ++b) {
            row += counters[t * kBuckets + b];
          }
          if (row != first_row) torn.store(true, std::memory_order_relaxed);
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Rng rng(77);
  std::vector<StreamElement> batch(kBatch);
  for (uint64_t i = 0; i < kBatches; ++i) {
    for (StreamElement& element : batch) {
      element = stream::Insert(rng.NextUint64Below(1u << 14));
    }
    ingestor->AbsorbBatch(batch);
  }
  ingestor->Flush();
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_FALSE(torn.load()) << "a reader saw a partially-propagated epoch";
  EXPECT_GT(snapshots.load(), 0u);
  // And the flushed total is exact.
  auto lock = ingestor->ReaderLock();
  const auto counters = ingestor->shared().CounterArray();
  int64_t row = 0;
  for (uint64_t b = 0; b < kBuckets; ++b) row += counters[b];
  EXPECT_EQ(static_cast<int64_t>(kBatch * kBatches), row);
}

/// TSan torture: concurrent AbsorbBatch (driver), point-estimate readers,
/// stats/epoch polling, and mid-stream Flush calls. Correctness assertions
/// are deliberately light — the payload is the interleaving itself, which
/// the sanitize matrix runs under ThreadSanitizer.
TEST(ConcurrentIngestorTest, TortureConcurrentAbsorbReadFlush) {
  auto shared = *sketch::HashSketch::Create({5, 64}, 13);
  ingest::ConcurrentIngestOptions options;
  options.num_workers = 3;
  options.propagation_interval_elements = 257;  // Prime: ragged epochs.
  options.max_lag_elements = 4096;              // Exercise forced locks.
  auto ingestor = *ingest::ConcurrentIngestor<sketch::HashSketch>::Create(
      &shared, options);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        {
          auto lock = ingestor->ReaderLock();
          (void)ingestor->shared().PointEstimate(rng.NextUint64Below(4096));
        }
        (void)ingestor->epoch_lag();
        (void)ingestor->epoch();
        // On single-core runners a spinning reader starves the ingest
        // workers; yielding keeps the interleaving without the stall.
        std::this_thread::yield();
      }
    });
  }

  for (uint64_t round = 0; round < 20; ++round) {
    const auto batch = MixedStream(2000 + round * 37, 1u << 12, 500 + round);
    ingestor->AbsorbBatch(batch);
    if (round % 10 == 9) ingestor->Flush();
  }
  ingestor->Flush();
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(0u, ingestor->epoch_lag());
}

// ---- Engine integration ----------------------------------------------------

/// Builds an engine with one frequency query over stream "s" and feeds it
/// `updates` in `batches` slices. Concurrent mode per `options`.
struct EngineUnderTest {
  std::unique_ptr<query::Engine> engine;
  query::QueryId fq = 0;
};

EngineUnderTest BuildAndFeed(const std::vector<query::StreamUpdate>& updates,
                             uint64_t domain,
                             std::optional<query::Engine::IngestOptions>
                                 options) {
  EngineUnderTest out;
  out.engine = std::make_unique<query::Engine>();
  if (options.has_value()) {
    SKIMJOIN_CHECK_OK(out.engine->SetIngestOptions(*options));
  }
  SKIMJOIN_CHECK(out.engine->RegisterStream({"s", domain}).ok());
  query::FrequencyQuerySpec freq;
  freq.stream = "s";
  auto fq = out.engine->AddFrequencyQuery(freq, 5);
  SKIMJOIN_CHECK(fq.ok());
  out.fq = *fq;
  // Several batches so the concurrent path crosses propagation boundaries
  // repeatedly and reuses its persistent workers.
  const size_t kSlices = 8;
  const size_t per = updates.size() / kSlices;
  for (size_t s = 0; s < kSlices; ++s) {
    const size_t begin = s * per;
    const size_t end = (s + 1 == kSlices) ? updates.size() : begin + per;
    SKIMJOIN_CHECK_OK(out.engine->UpdateBatch(
        "s", std::span<const query::StreamUpdate>(updates.data() + begin,
                                                  end - begin)));
  }
  return out;
}

std::vector<query::StreamUpdate> EngineStream(uint64_t count, uint64_t domain,
                                              uint64_t seed) {
  std::vector<query::StreamUpdate> updates;
  updates.reserve(count);
  for (const StreamElement& element : MixedStream(count, domain, seed)) {
    updates.push_back({element.value, element.weight, 0});
  }
  return updates;
}

TEST(EngineConcurrentIngestTest, FlushedAnswersMatchSequentialEngine) {
  const uint64_t kDomain = 1u << 12;
  const auto updates = EngineStream(30000, kDomain, 61);

  EngineUnderTest sequential = BuildAndFeed(updates, kDomain, std::nullopt);
  query::Engine::IngestOptions options;
  options.shards = 2;
  options.concurrent = true;
  options.propagation_interval_elements = 1024;
  EngineUnderTest concurrent = BuildAndFeed(updates, kDomain, options);

  // Mid-stream (pre-flush) answers must be legal bounded-staleness reads —
  // no crash, no lock-up — even while workers may still be absorbing.
  ASSERT_TRUE(concurrent.engine->AnswerPointFrequency(concurrent.fq, 1).ok());

  concurrent.engine->FlushIngest();
  Rng rng(123);
  for (int i = 0; i < 200; ++i) {
    const uint64_t value = rng.NextUint64Below(kDomain);
    const auto expected =
        sequential.engine->AnswerPointFrequency(sequential.fq, value);
    const auto got =
        concurrent.engine->AnswerPointFrequency(concurrent.fq, value);
    ASSERT_TRUE(expected.ok() && got.ok());
    ASSERT_EQ(*expected, *got) << "value=" << value;
  }
  const auto expected_hh =
      sequential.engine->AnswerHeavyHitters(sequential.fq, 50);
  const auto got_hh = concurrent.engine->AnswerHeavyHitters(concurrent.fq, 50);
  ASSERT_TRUE(expected_hh.ok() && got_hh.ok());
  EXPECT_EQ(*expected_hh, *got_hh);
}

TEST(EngineConcurrentIngestTest, SerializeFlushesImplicitly) {
  const uint64_t kDomain = 1u << 12;
  const auto updates = EngineStream(20000, kDomain, 62);

  EngineUnderTest sequential = BuildAndFeed(updates, kDomain, std::nullopt);
  query::Engine::IngestOptions options;
  options.shards = 2;
  options.concurrent = true;
  options.propagation_interval_elements = 1u << 20;  // Nothing volunteers.
  EngineUnderTest concurrent = BuildAndFeed(updates, kDomain, options);

  // No explicit FlushIngest: SerializeQuerySynopsis must linearize on its
  // own so the distributed delta-pull payload is exact.
  std::string expected, got;
  SKIMJOIN_CHECK_OK(
      sequential.engine->SerializeQuerySynopsis(sequential.fq, &expected));
  SKIMJOIN_CHECK_OK(
      concurrent.engine->SerializeQuerySynopsis(concurrent.fq, &got));
  EXPECT_EQ(expected, got);
}

TEST(EngineConcurrentIngestTest, EpochLagGaugeDropsToZeroAfterFlush) {
  const uint64_t kDomain = 1u << 12;
  const auto updates = EngineStream(20000, kDomain, 63);
  query::Engine::IngestOptions options;
  options.shards = 2;
  options.concurrent = true;
  options.propagation_interval_elements = 1u << 20;  // Flush does the work.
  EngineUnderTest under = BuildAndFeed(updates, kDomain, options);

  under.engine->FlushIngest();
  const metrics::Snapshot snapshot = under.engine->MetricsSnapshot();
  bool saw_lag = false;
  bool saw_concurrent = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "ingest.s.epoch_lag") {
      saw_lag = true;
      EXPECT_EQ(0.0, value);
    }
    if (name == "engine.ingest_concurrent") {
      saw_concurrent = true;
      EXPECT_EQ(1.0, value);
    }
  }
  EXPECT_TRUE(saw_lag);
  EXPECT_TRUE(saw_concurrent);
}

TEST(EngineConcurrentIngestTest, ModeSwitchesNeverLoseElements) {
  const uint64_t kDomain = 1u << 10;
  query::Engine engine;
  ASSERT_TRUE(engine.RegisterStream({"s", kDomain}).ok());
  query::FrequencyQuerySpec freq;
  freq.stream = "s";
  auto fq = engine.AddFrequencyQuery(freq, 5);
  ASSERT_TRUE(fq.ok());

  query::Engine reference;
  ASSERT_TRUE(reference.RegisterStream({"s", kDomain}).ok());
  auto ref_fq = reference.AddFrequencyQuery(freq, 5);
  ASSERT_TRUE(ref_fq.ok());

  // inline → concurrent → sharded → concurrent → inline, feeding through
  // every transition; SetIngestOptions must flush so nothing is dropped.
  query::Engine::IngestOptions concurrent_mode;
  concurrent_mode.shards = 2;
  concurrent_mode.concurrent = true;
  concurrent_mode.propagation_interval_elements = 512;
  const std::vector<std::optional<query::Engine::IngestOptions>> phases = {
      std::nullopt, concurrent_mode, query::Engine::IngestOptions{2},
      concurrent_mode, std::nullopt};
  for (size_t phase = 0; phase < phases.size(); ++phase) {
    if (phases[phase].has_value()) {
      ASSERT_TRUE(engine.SetIngestOptions(*phases[phase]).ok());
    } else {
      ASSERT_TRUE(engine.SetIngestOptions({}).ok());
    }
    const auto updates = EngineStream(6000, kDomain, 70 + phase);
    ASSERT_TRUE(engine.UpdateBatch("s", updates).ok());
    ASSERT_TRUE(reference.UpdateBatch("s", updates).ok());
  }
  engine.FlushIngest();
  std::string expected, got;
  SKIMJOIN_CHECK_OK(reference.SerializeQuerySynopsis(*ref_fq, &expected));
  SKIMJOIN_CHECK_OK(engine.SerializeQuerySynopsis(*fq, &got));
  EXPECT_EQ(expected, got);
}

}  // namespace
}  // namespace skimjoin
