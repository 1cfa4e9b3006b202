// Micro-benchmarks for the paper's per-element processing-time claims
// (§4.1, §4.3): basic AGMS touches every one of its `space` counters per
// element, the hash sketch touches one counter per table, and the dyadic-
// maintained skimmed sketch touches one counter per table per level — i.e.,
// O(space) vs O(s) vs O(s·log m). Run with google-benchmark; times are
// per-element.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "benchmark/benchmark.h"
#include "core/skimmed_sketch.h"
#include "hashing/simd_hash.h"
#include "ingest/concurrent_ingestor.h"
#include "query/engine.h"
#include "sketch/agms_sketch.h"
#include "sketch/count_min_sketch.h"
#include "sketch/hash_sketch.h"
#include "sketch/kernel.h"
#include "stream/stream_element.h"
#include "stream/zipf.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"

namespace skimjoin {
namespace {

constexpr uint64_t kDomain = 1u << 18;

void BM_AgmsUpdate(benchmark::State& state) {
  const auto space = static_cast<uint64_t>(state.range(0));
  sketch::AgmsConfig config;
  config.num_medians = 11;
  config.num_means = space / 11;
  auto sketch = *sketch::AgmsSketch::Create(config, 1);
  Rng rng(2);
  for (auto _ : state) {
    sketch.Update(rng.NextUint64Below(kDomain), 1);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["counters_touched"] =
      static_cast<double>(config.TotalCounters());
}
BENCHMARK(BM_AgmsUpdate)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_HashSketchUpdate(benchmark::State& state) {
  const auto space = static_cast<uint64_t>(state.range(0));
  sketch::HashSketchConfig config;
  config.num_tables = 7;
  config.num_buckets = space / 7;
  auto sketch = *sketch::HashSketch::Create(config, 1);
  Rng rng(2);
  for (auto _ : state) {
    sketch.Update(rng.NextUint64Below(kDomain), 1);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["counters_touched"] = static_cast<double>(config.num_tables);
}
BENCHMARK(BM_HashSketchUpdate)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_SkimmedSketchUpdateDyadic(benchmark::State& state) {
  const auto space = static_cast<uint64_t>(state.range(0));
  core::SkimmedSketchConfig config;
  config.domain_size = kDomain;
  config.num_tables = 7;
  config.num_buckets = space / 14;
  config.dyadic_num_buckets = space / (14 * 18);
  if (config.dyadic_num_buckets == 0) config.dyadic_num_buckets = 1;
  config.use_dyadic_skim = true;
  auto sketch = *core::SkimmedSketch::Create(config, 1);
  Rng rng(2);
  for (auto _ : state) {
    sketch.Update(rng.NextUint64Below(kDomain), 1);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["counters_touched"] =
      static_cast<double>(config.num_tables * 19);  // level 0 + 18 levels
}
BENCHMARK(BM_SkimmedSketchUpdateDyadic)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384);

void BM_CountMinUpdate(benchmark::State& state) {
  sketch::CountMinConfig config;
  config.num_tables = 5;
  config.num_buckets = static_cast<uint64_t>(state.range(0)) / 5;
  auto sketch = *sketch::CountMinSketch::Create(config, 1);
  Rng rng(2);
  for (auto _ : state) {
    sketch.Update(rng.NextUint64Below(kDomain), 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinUpdate)->Arg(1024)->Arg(4096);

// Estimation-time cost: skimming a copy plus the four subjoin estimates.
void BM_SkimmedJoinEstimate(benchmark::State& state) {
  const auto domain = static_cast<uint64_t>(state.range(0));
  core::SkimmedSketchConfig config;
  config.domain_size = domain;
  config.num_tables = 5;
  config.num_buckets = 512;
  config.use_dyadic_skim = true;
  config.dyadic_num_buckets = 64;
  auto f = *core::SkimmedSketch::Create(config, 1);
  auto g = *core::SkimmedSketch::Create(config, 1);
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    f.Update(rng.NextUint64Below(domain / 4), 1);
    g.Update(rng.NextUint64Below(domain / 4), 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SkimmedSketch::EstimateJoinSize(f, g));
  }
}
BENCHMARK(BM_SkimmedJoinEstimate)->Arg(1u << 12)->Arg(1u << 16)->Arg(1u << 18);

void BM_AgmsJoinEstimate(benchmark::State& state) {
  sketch::AgmsConfig config;
  config.num_medians = 11;
  config.num_means = static_cast<uint64_t>(state.range(0)) / 11;
  auto f = *sketch::AgmsSketch::Create(config, 1);
  auto g = *sketch::AgmsSketch::Create(config, 1);
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    f.Update(rng.NextUint64Below(kDomain), 1);
    g.Update(rng.NextUint64Below(kDomain), 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch::AgmsSketch::EstimateJoinSize(f, g));
  }
}
BENCHMARK(BM_AgmsJoinEstimate)->Arg(1024)->Arg(4096);

// ---------------------------------------------------------------------------
// Batched and threaded ingestion. One shared 10M-element Zipf stream,
// generated once outside all timing loops.

const std::vector<stream::StreamElement>& ZipfStream10M() {
  static const auto* stream = [] {
    Rng rng(7);
    return new std::vector<stream::StreamElement>(
        stream::ZipfDistribution(kDomain, 1.1).GenerateElements(10'000'000,
                                                                &rng));
  }();
  return *stream;
}

core::SkimmedSketchConfig IngestBenchConfig() {
  core::SkimmedSketchConfig config;
  config.domain_size = kDomain;
  config.num_tables = 7;
  config.num_buckets = 1024;
  config.use_dyadic_skim = true;
  config.dyadic_num_buckets = 64;
  return config;
}

// Scalar baseline over the same stream the batch/threaded modes consume.
void BM_SkimmedSketchScalarIngest(benchmark::State& state) {
  auto sketch = *core::SkimmedSketch::Create(IngestBenchConfig(), 1);
  const auto& stream = ZipfStream10M();
  for (auto _ : state) {
    for (const stream::StreamElement& element : stream) {
      sketch.Update(element.value, element.weight);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_SkimmedSketchScalarIngest)->Unit(benchmark::kMillisecond);

// Single-threaded batch kernel, chunked at range(0) elements: isolates the
// table-major / hash-hoisting gain from the threading gain.
void BM_SkimmedSketchBatchIngest(benchmark::State& state) {
  const auto batch = static_cast<size_t>(state.range(0));
  auto sketch = *core::SkimmedSketch::Create(IngestBenchConfig(), 1);
  const auto& stream = ZipfStream10M();
  const std::span<const stream::StreamElement> all(stream);
  for (auto _ : state) {
    for (size_t off = 0; off < all.size(); off += batch) {
      sketch.UpdateBatch(all.subspan(off, std::min(batch, all.size() - off)));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_SkimmedSketchBatchIngest)
    ->Arg(4096)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Truly concurrent ingestion (DESIGN.md §13): persistent workers, private
// replicas, relaxed-consistency propagation into the shared synopsis.
// HashSketch on the fast kernel (SIMD included) is the aggregate-
// throughput target row — the release gate reads items_per_second off
// /N where N is the runner's hardware concurrency and checks the
// multi-thread scaling ratio against /1 (machine-aware: only enforced on
// runners with enough cores to scale).

// Defined with the kernel rows below; shared here so the
// concurrent rows are directly comparable with the /15 single-thread row.
const std::vector<stream::StreamElement>& ZipfStream10MZ10();

void BM_HashSketchConcurrentIngest(benchmark::State& state) {
  const auto workers = static_cast<uint64_t>(state.range(0));
  sketch::HashSketchConfig config;
  config.num_tables = 7;
  config.num_buckets = 1024;
  auto shared = *sketch::HashSketch::Create(config, 1);
  ingest::ConcurrentIngestOptions options;
  options.num_workers = workers;
  auto ingestor = *ingest::ConcurrentIngestor<sketch::HashSketch>::Create(
      &shared, options);
  const auto& stream = ZipfStream10MZ10();
  const std::span<const stream::StreamElement> all(stream);
  constexpr size_t kBatch = 65536;
  for (auto _ : state) {
    for (size_t off = 0; off < all.size(); off += kBatch) {
      ingestor->AbsorbBatch(
          all.subspan(off, std::min(kBatch, all.size() - off)));
    }
    // Flush inside the timed region: the honest number includes the
    // linearization, not just handing copies to workers.
    ingestor->Flush();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
  state.counters["workers"] = static_cast<double>(workers);
}
// UseRealTime: worker-thread CPU is invisible to benchmark's per-process
// CPU clock, so wall time is the only honest basis for items/sec here.
BENCHMARK(BM_HashSketchConcurrentIngest)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same ingest with two reader threads continuously taking
// bounded-staleness point estimates — the "queries running concurrently"
// row of the acceptance criteria. Readers must never block writers for
// more than a propagation critical section.
void BM_HashSketchConcurrentIngestWithReaders(benchmark::State& state) {
  const auto workers = static_cast<uint64_t>(state.range(0));
  sketch::HashSketchConfig config;
  config.num_tables = 7;
  config.num_buckets = 1024;
  auto shared = *sketch::HashSketch::Create(config, 1);
  ingest::ConcurrentIngestOptions options;
  options.num_workers = workers;
  auto ingestor = *ingest::ConcurrentIngestor<sketch::HashSketch>::Create(
      &shared, options);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&ingestor, &stop, &reads, r] {
      Rng rng(900 + r);
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        {
          auto lock = ingestor->ReaderLock();
          benchmark::DoNotOptimize(
              ingestor->shared().PointEstimate(rng.NextUint64Below(kDomain)));
          ++local;
        }
        // Yield between probes so reader spin does not starve ingest workers
        // on low-core machines; throughput impact on real readers is nil.
        std::this_thread::yield();
      }
      reads.fetch_add(local, std::memory_order_relaxed);
    });
  }
  const auto& stream = ZipfStream10MZ10();
  const std::span<const stream::StreamElement> all(stream);
  constexpr size_t kBatch = 65536;
  for (auto _ : state) {
    for (size_t off = 0; off < all.size(); off += kBatch) {
      ingestor->AbsorbBatch(
          all.subspan(off, std::min(kBatch, all.size() - off)));
    }
    ingestor->Flush();
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["concurrent_reads"] = static_cast<double>(reads.load());
}
BENCHMARK(BM_HashSketchConcurrentIngestWithReaders)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Kernel rows (DESIGN.md §10, §13): the same single-threaded 65536-element
// batched ingest under each update kernel. Arg 0 is Kernel::kReference and
// arg 15 Kernel::kFast (the names match the committed baseline rows, from
// when the arg was a bitmask of four fast paths). /15 picks its SIMD lanes
// by CPUID — see the simd_dispatch context field — and CI re-runs it under
// SKIMJOIN_FORCE_SCALAR=1 to measure the scalar-lane fast kernel. The
// stream is 10M Zipf z=1.0 (the acceptance workload), distinct from the
// z=1.1 stream above.

const std::vector<stream::StreamElement>& ZipfStream10MZ10() {
  static const auto* stream = [] {
    Rng rng(7);
    return new std::vector<stream::StreamElement>(
        stream::ZipfDistribution(kDomain, 1.0).GenerateElements(10'000'000,
                                                                &rng));
  }();
  return *stream;
}

sketch::Kernel KernelFromArg(int64_t arg) {
  return arg == 0 ? sketch::Kernel::kReference : sketch::Kernel::kFast;
}

void BM_HashSketchKernelIngest(benchmark::State& state) {
  sketch::HashSketchConfig config;
  config.num_tables = 7;
  config.num_buckets = 1024;
  auto sketch = *sketch::HashSketch::Create(config, 1);
  sketch.SetKernel(KernelFromArg(state.range(0)));
  const auto& stream = ZipfStream10MZ10();
  const std::span<const stream::StreamElement> all(stream);
  constexpr size_t kBatch = 65536;
  for (auto _ : state) {
    for (size_t off = 0; off < all.size(); off += kBatch) {
      sketch.UpdateBatch(all.subspan(off, std::min(kBatch, all.size() - off)));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
  const double probes =
      static_cast<double>(sketch.hash_cache_hits() + sketch.hash_cache_misses());
  state.counters["cache_hit_rate"] =
      probes > 0 ? static_cast<double>(sketch.hash_cache_hits()) / probes : 0.0;
}
BENCHMARK(BM_HashSketchKernelIngest)
    ->Arg(0)
    ->Arg(15)
    ->Unit(benchmark::kMillisecond);

void BM_SkimmedSketchKernelIngest(benchmark::State& state) {
  auto sketch = *core::SkimmedSketch::Create(IngestBenchConfig(), 1);
  sketch.SetKernel(KernelFromArg(state.range(0)));
  const auto& stream = ZipfStream10MZ10();
  const std::span<const stream::StreamElement> all(stream);
  constexpr size_t kBatch = 65536;
  for (auto _ : state) {
    for (size_t off = 0; off < all.size(); off += kBatch) {
      sketch.UpdateBatch(all.subspan(off, std::min(kBatch, all.size() - off)));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
  const double probes =
      static_cast<double>(sketch.hash_cache_hits() + sketch.hash_cache_misses());
  state.counters["cache_hit_rate"] =
      probes > 0 ? static_cast<double>(sketch.hash_cache_hits()) / probes : 0.0;
}
BENCHMARK(BM_SkimmedSketchKernelIngest)
    ->Arg(0)
    ->Arg(15)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Engine-path ingestion: everything the raw kernels above skip — stream
// lookup, predicate routing, AND the metrics instrumentation (ingest
// counters, trace spans). These are the benchmarks the CI overhead gate
// compares between a default build and -DSKIMJOIN_DISABLE_METRICS=ON
// (tools/check_bench_regression.py; budget: 10%).

const std::vector<query::StreamUpdate>& EngineUpdates1M() {
  static const auto* updates = [] {
    Rng rng(11);
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

void BM_EngineUpdateBatch(benchmark::State& state) {
  const auto batch = static_cast<size_t>(state.range(0));
  query::Engine engine;
  SKIMJOIN_CHECK(
      engine.RegisterStream({.name = "f", .domain_size = kDomain}).ok());
  query::FrequencyQuerySpec freq;
  freq.stream = "f";
  SKIMJOIN_CHECK(engine.AddFrequencyQuery(freq, 1).ok());
  const auto& updates = EngineUpdates1M();
  const std::span<const query::StreamUpdate> all(updates);
  for (auto _ : state) {
    for (size_t off = 0; off < all.size(); off += batch) {
      SKIMJOIN_CHECK(
          engine
              .UpdateBatch("f",
                           all.subspan(off, std::min(batch, all.size() - off)))
              .ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(updates.size()));
}
BENCHMARK(BM_EngineUpdateBatch)
    ->Arg(4096)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

// The same batch path with the stream profiler's runtime kill switch thrown.
// CI's metrics-overhead gate compares this against BM_EngineUpdateBatch in
// the SAME binary and fails if the profiler costs more than 5% of ingest
// (tools/check_bench_regression.py --compare).
void BM_EngineUpdateBatchNoProfiler(benchmark::State& state) {
  const auto batch = static_cast<size_t>(state.range(0));
  query::Engine engine;
  engine.SetProfilerEnabled(false);
  SKIMJOIN_CHECK(
      engine.RegisterStream({.name = "f", .domain_size = kDomain}).ok());
  query::FrequencyQuerySpec freq;
  freq.stream = "f";
  SKIMJOIN_CHECK(engine.AddFrequencyQuery(freq, 1).ok());
  const auto& updates = EngineUpdates1M();
  const std::span<const query::StreamUpdate> all(updates);
  for (auto _ : state) {
    for (size_t off = 0; off < all.size(); off += batch) {
      SKIMJOIN_CHECK(
          engine
              .UpdateBatch("f",
                           all.subspan(off, std::min(batch, all.size() - off)))
              .ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(updates.size()));
}
BENCHMARK(BM_EngineUpdateBatchNoProfiler)
    ->Arg(4096)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

// Scalar Update is the documented slow path (one counter increment per
// element instead of one per batch) — benchmarked so a regression there is
// visible too, just against a looser absolute baseline.
void BM_EngineScalarUpdate(benchmark::State& state) {
  query::Engine engine;
  SKIMJOIN_CHECK(
      engine.RegisterStream({.name = "f", .domain_size = kDomain}).ok());
  query::FrequencyQuerySpec freq;
  freq.stream = "f";
  SKIMJOIN_CHECK(engine.AddFrequencyQuery(freq, 1).ok());
  const auto& updates = EngineUpdates1M();
  size_t index = 0;
  for (auto _ : state) {
    SKIMJOIN_CHECK(engine.Update("f", updates[index]).ok());
    index = (index + 1) % updates.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineScalarUpdate);

// Estimate-call latency through the instrumented Answer path (TraceSpan +
// ScopedEstimate timer + drift check on every call).
void BM_EngineAnswerJoin(benchmark::State& state) {
  query::Engine engine;
  SKIMJOIN_CHECK(
      engine.RegisterStream({.name = "f", .domain_size = kDomain}).ok());
  SKIMJOIN_CHECK(
      engine.RegisterStream({.name = "g", .domain_size = kDomain}).ok());
  query::JoinQuerySpec join;
  join.left_stream = "f";
  join.right_stream = "g";
  join.estimator.kind = core::EstimatorKind::kHashSketch;
  join.estimator.space_counters = 4096;
  const StatusOr<query::QueryId> id = engine.AddJoinQuery(join, 1);
  SKIMJOIN_CHECK(id.ok());
  const auto& updates = EngineUpdates1M();
  const std::span<const query::StreamUpdate> prefix(updates.data(), 100'000);
  SKIMJOIN_CHECK(engine.UpdateBatch("f", prefix).ok());
  SKIMJOIN_CHECK(engine.UpdateBatch("g", prefix).ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.AnswerJoin(*id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineAnswerJoin);

}  // namespace
}  // namespace skimjoin

// BENCHMARK_MAIN plus two custom context fields: which SIMD level the
// runtime dispatcher selected on this machine, so committed baseline JSON
// records what instruction set produced its numbers (DESIGN.md §13), and
// how THIS library was compiled. The stock "library_build_type" context
// field describes the google-benchmark library, which distribution
// packages routinely ship as a debug build — it says nothing about
// skimjoin's own optimization level, which is what baseline provenance
// actually needs (tools/check_bench_regression.py prefers this field).
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "simd_dispatch",
      skimjoin::hashing::SimdLevelName(skimjoin::hashing::DetectSimdLevel()));
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
