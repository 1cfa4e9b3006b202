// Read-side throughput for the read path (DESIGN.md §11): point and join
// queries per second through the engine's Answer* calls, with the
// epoch-invalidated query cache toggled by the arg (1 = query cache,
// 0 = no cache).
//
// Three workload shapes:
//   * BM_PointQueryQps   — repeated point queries over a hot working set on
//                          a quiescent stream (the cache's best case; the
//                          CI gate requires >= 10x for /1 vs /0).
//   * BM_JoinQueryQps    — repeated join estimates on quiescent streams;
//                          the skimmed estimator recomputes SKIMDENSE +
//                          four subjoins per miss, so hits dominate.
//   * BM_LiveIngestMixQps — interleaved ingest batches and query bursts on
//                          one thread (the engine is single-writer): every
//                          batch bumps the stream epoch, so the cache
//                          invalidates each round and earns its keep only
//                          within a burst.
//
// Per-query latency quantiles (sampled every kLatencySampleEvery-th query
// to keep clock reads off the common path) are exported as p50/p99 counters
// in nanoseconds.

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "benchmark/benchmark.h"
#include "query/engine.h"
#include "stream/stream_element.h"
#include "stream/zipf.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/random.h"

namespace skimjoin {
namespace {

constexpr uint64_t kDomain = 1u << 16;
constexpr uint64_t kHotValues = 64;
constexpr int kLatencySampleEvery = 16;

query::Engine::ReadPathOptions ReadPathFromArg(int64_t cached) {
  query::Engine::ReadPathOptions options;
  options.use_query_cache = cached != 0;
  return options;
}

const std::vector<query::StreamUpdate>& ZipfUpdates1M() {
  static const auto* updates = [] {
    Rng rng(17);
    const std::vector<stream::StreamElement> elements =
        stream::ZipfDistribution(kDomain, 1.1).GenerateElements(1'000'000,
                                                                &rng);
    auto* out = new std::vector<query::StreamUpdate>;
    out->reserve(elements.size());
    for (const stream::StreamElement& e : elements) {
      out->push_back({.value = e.value, .count = e.weight});
    }
    return out;
  }();
  return *updates;
}

void ExportLatency(benchmark::State& state, const Histogram& latency) {
  if (latency.Count() == 0) return;
  state.counters["latency_p50_ns"] = latency.ApproximateQuantile(0.5);
  state.counters["latency_p99_ns"] = latency.ApproximateQuantile(0.99);
}

void BM_PointQueryQps(benchmark::State& state) {
  query::Engine engine;
  SKIMJOIN_CHECK(
      engine.RegisterStream({.name = "f", .domain_size = kDomain}).ok());
  query::FrequencyQuerySpec freq;
  freq.stream = "f";
  // High-accuracy configuration (many independent tables, wide rows): what a
  // serving deployment that cares about point-estimate tails runs, and the
  // regime where recomputing the COUNTSKETCH median per query actually hurts.
  freq.num_tables = 21;
  freq.space_counters = 8192;
  const StatusOr<query::QueryId> id = engine.AddFrequencyQuery(freq, 1);
  SKIMJOIN_CHECK(id.ok());
  SKIMJOIN_CHECK(engine.UpdateBatch("f", ZipfUpdates1M()).ok());
  engine.SetReadPathOptions(ReadPathFromArg(state.range(0)));

  Histogram latency;
  uint64_t value = 0;
  int64_t sample_countdown = kLatencySampleEvery;
  for (auto _ : state) {
    const uint64_t probe = value++ % kHotValues;  // hot set: repeats fast
    if (--sample_countdown == 0) {
      sample_countdown = kLatencySampleEvery;
      const auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(engine.AnswerPointFrequency(*id, probe));
      latency.Add(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
    } else {
      benchmark::DoNotOptimize(engine.AnswerPointFrequency(*id, probe));
    }
  }
  state.SetItemsProcessed(state.iterations());
  ExportLatency(state, latency);
}
BENCHMARK(BM_PointQueryQps)->Arg(0)->Arg(1);

void BM_JoinQueryQps(benchmark::State& state) {
  query::Engine engine;
  SKIMJOIN_CHECK(
      engine.RegisterStream({.name = "f", .domain_size = kDomain}).ok());
  SKIMJOIN_CHECK(
      engine.RegisterStream({.name = "g", .domain_size = kDomain}).ok());
  query::JoinQuerySpec join;
  join.left_stream = "f";
  join.right_stream = "g";
  join.estimator.kind = core::EstimatorKind::kSkimmedSketch;
  join.estimator.space_counters = 4096;
  const StatusOr<query::QueryId> id = engine.AddJoinQuery(join, 1);
  SKIMJOIN_CHECK(id.ok());
  const auto& updates = ZipfUpdates1M();
  const std::span<const query::StreamUpdate> prefix(updates.data(), 200'000);
  SKIMJOIN_CHECK(engine.UpdateBatch("f", prefix).ok());
  SKIMJOIN_CHECK(engine.UpdateBatch("g", prefix).ok());
  engine.SetReadPathOptions(ReadPathFromArg(state.range(0)));

  Histogram latency;
  int64_t sample_countdown = kLatencySampleEvery;
  for (auto _ : state) {
    if (--sample_countdown == 0) {
      sample_countdown = kLatencySampleEvery;
      const auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(engine.AnswerJoin(*id));
      latency.Add(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
    } else {
      benchmark::DoNotOptimize(engine.AnswerJoin(*id));
    }
  }
  state.SetItemsProcessed(state.iterations());
  ExportLatency(state, latency);
}
BENCHMARK(BM_JoinQueryQps)->Arg(0)->Arg(1);

// Live ingest: each iteration absorbs one 256-update batch (bumping the
// stream's epoch, so any cached answers invalidate) and then answers a
// 64-query burst over the hot set. items processed = queries answered.
void BM_LiveIngestMixQps(benchmark::State& state) {
  constexpr size_t kBatch = 256;
  constexpr uint64_t kBurst = 64;
  query::Engine engine;
  SKIMJOIN_CHECK(
      engine.RegisterStream({.name = "f", .domain_size = kDomain}).ok());
  query::FrequencyQuerySpec freq;
  freq.stream = "f";
  freq.num_tables = 21;
  freq.space_counters = 8192;
  const StatusOr<query::QueryId> id = engine.AddFrequencyQuery(freq, 1);
  SKIMJOIN_CHECK(id.ok());
  const auto& updates = ZipfUpdates1M();
  const std::span<const query::StreamUpdate> all(updates);
  SKIMJOIN_CHECK(engine.UpdateBatch("f", all.first(100'000)).ok());
  engine.SetReadPathOptions(ReadPathFromArg(state.range(0)));

  size_t offset = 100'000;
  for (auto _ : state) {
    if (offset + kBatch > all.size()) offset = 0;
    SKIMJOIN_CHECK(engine.UpdateBatch("f", all.subspan(offset, kBatch)).ok());
    offset += kBatch;
    for (uint64_t probe = 0; probe < kBurst; ++probe) {
      benchmark::DoNotOptimize(
          engine.AnswerPointFrequency(*id, probe % kHotValues));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBurst));
}
BENCHMARK(BM_LiveIngestMixQps)->Arg(0)->Arg(1);

}  // namespace
}  // namespace skimjoin

// BENCHMARK_MAIN plus skimjoin's own build type as a context field: the
// stock "library_build_type" describes the google-benchmark library (often
// a distribution debug build), not this library's optimization level —
// tools/check_bench_regression.py prefers this field for its advisory.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("skimjoin_build_type", "release");
#else
  benchmark::AddCustomContext("skimjoin_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
