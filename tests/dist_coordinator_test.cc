// Coordinator tests against real in-process workers (each Serve()-ing on
// its own thread over a real Unix socket): merged answers are bit-identical
// to a single local engine (predicated and SUM queries included), RPCs stay
// inside their deadline + retry budget when a shard is unreachable,
// chaos-injected frame corruption is retried through, a dead shard
// degrades answers to flagged partials, a worker restarted from its
// checkpoint (chain joins included) is re-adopted without double-merging,
// a worker that refuses a replayed registration is never adopted, and the
// coordinator refuses exactly the specs a local engine refuses, with the
// engine's status codes and nothing left behind to replay.

#include "dist/coordinator.h"

#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "dist/frame.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "gtest/gtest.h"
#include "query/engine.h"
#include "sketch/partitioned_agms.h"
#include "stream/frequency_vector.h"
#include "util/event_log.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/random.h"

namespace skimjoin {
namespace dist {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// One worker Serve()-ing on a background thread; stoppable and
/// restartable (same options → same socket and checkpoint).
class WorkerHarness {
 public:
  explicit WorkerHarness(WorkerOptions options)
      : options_(std::move(options)) {
    Start();
  }
  ~WorkerHarness() { Stop(); }

  void Start() {
    StatusOr<std::unique_ptr<Worker>> worker = Worker::Create(options_);
    ASSERT_TRUE(worker.ok()) << worker.status();
    worker_ = std::move(*worker);
    thread_ = std::thread([this] {
      const Status status = worker_->Serve();
      EXPECT_TRUE(status.ok()) << status;
    });
  }

  void Stop() {
    if (worker_ != nullptr) worker_->RequestStop();
    if (thread_.joinable()) thread_.join();
    worker_.reset();
  }

  void Restart() {
    Stop();
    Start();
  }

 private:
  WorkerOptions options_;
  std::unique_ptr<Worker> worker_;
  std::thread thread_;
};

WorkerOptions MakeWorkerOptions(std::string socket, std::string shard) {
  WorkerOptions options;
  options.socket_path = std::move(socket);
  options.shard_name = std::move(shard);
  return options;
}

CoordinatorOptions FastOptions() {
  CoordinatorOptions options;
  options.rpc_timeout = milliseconds(2000);
  options.rpc_attempts = 3;
  options.backoff_base = milliseconds(1);
  options.backoff_cap = milliseconds(10);
  options.down_after_failures = 2;
  return options;
}

query::JoinQuerySpec SkimmedJoinSpec() {
  query::JoinQuerySpec spec;
  spec.left_stream = "f";
  spec.right_stream = "g";
  spec.estimator.kind = core::EstimatorKind::kSkimmedSketch;
  spec.estimator.space_counters = 1024;
  return spec;
}

/// One registration, applied alike to a coordinator and a local engine.
using Registration =
    std::variant<query::StreamSpec, query::RelationSpec, query::QuerySpec>;

Status StatusOf(const Status& status) { return status; }
template <typename T>
Status StatusOf(const StatusOr<T>& result) {
  return result.status();
}

template <typename Backend>
Status Register(Backend& backend, const Registration& registration) {
  if (const auto* stream = std::get_if<query::StreamSpec>(&registration)) {
    return StatusOf(backend.RegisterStream(*stream));
  }
  if (const auto* relation = std::get_if<query::RelationSpec>(&registration)) {
    return StatusOf(backend.RegisterRelation(*relation));
  }
  return StatusOf(backend.AddQuery(std::get<query::QuerySpec>(registration),
                                   /*seed=*/1));
}

/// Whether a `worker_readopted` event for `shard` was emitted after
/// sequence `after`.
bool ReadoptedSince(uint64_t after, const std::string& shard) {
  for (const LogEvent& event :
       EventLog::Global().Tail(EventLog::kDefaultRingCapacity)) {
    if (event.sequence <= after || event.event != "worker_readopted") continue;
    for (const auto& [key, value] : event.fields) {
      if (key == "shard" && value == shard) return true;
    }
  }
  return false;
}

uint64_t LastEventSequence() {
  const std::vector<LogEvent> tail = EventLog::Global().Tail(1);
  return tail.empty() ? 0 : tail.back().sequence;
}

/// Feeds the same deterministic workload to a backend and a local engine.
std::vector<query::StreamUpdate> Workload(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<query::StreamUpdate> updates;
  updates.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    updates.push_back({rng.NextUint64Below(1u << 12), 1, 0});
  }
  return updates;
}

TEST(CoordinatorTest, MergedAnswersAreBitIdenticalToLocalEngine) {
  const std::string dir = ::testing::TempDir();
  WorkerHarness w0(MakeWorkerOptions(dir + "/coord_ident_0.sock", "s0"));
  WorkerHarness w1(MakeWorkerOptions(dir + "/coord_ident_1.sock", "s1"));
  Coordinator coordinator({{"s0", dir + "/coord_ident_0.sock"},
                           {"s1", dir + "/coord_ident_1.sock"}},
                          FastOptions());

  query::Engine engine;
  const query::StreamSpec f{"f", 1u << 12};
  const query::StreamSpec g{"g", 1u << 12};
  ASSERT_TRUE(coordinator.RegisterStream(f).ok());
  ASSERT_TRUE(coordinator.RegisterStream(g).ok());
  ASSERT_TRUE(engine.RegisterStream(f).ok());
  ASSERT_TRUE(engine.RegisterStream(g).ok());

  const uint64_t kSeed = 77;
  StatusOr<query::QueryId> dist_join =
      coordinator.AddJoinQuery(SkimmedJoinSpec(), kSeed);
  ASSERT_TRUE(dist_join.ok()) << dist_join.status();
  StatusOr<query::QueryId> local_join =
      engine.AddJoinQuery(SkimmedJoinSpec(), kSeed);
  ASSERT_TRUE(local_join.ok()) << local_join.status();

  query::FrequencyQuerySpec freq;
  freq.stream = "f";
  freq.space_counters = 512;
  StatusOr<query::QueryId> dist_freq =
      coordinator.AddFrequencyQuery(freq, kSeed + 1);
  ASSERT_TRUE(dist_freq.ok()) << dist_freq.status();
  StatusOr<query::QueryId> local_freq =
      engine.AddFrequencyQuery(freq, kSeed + 1);
  ASSERT_TRUE(local_freq.ok()) << local_freq.status();

  const std::vector<query::StreamUpdate> f_updates = Workload(1, 500);
  const std::vector<query::StreamUpdate> g_updates = Workload(2, 500);
  ASSERT_TRUE(coordinator.UpdateBatch("f", f_updates).ok());
  ASSERT_TRUE(coordinator.UpdateBatch("g", g_updates).ok());
  ASSERT_TRUE(engine.UpdateBatch("f", f_updates).ok());
  ASSERT_TRUE(engine.UpdateBatch("g", g_updates).ok());

  StatusOr<double> dist_answer = coordinator.AnswerJoin(*dist_join);
  StatusOr<double> local_answer = engine.AnswerJoin(*local_join);
  ASSERT_TRUE(dist_answer.ok()) << dist_answer.status();
  ASSERT_TRUE(local_answer.ok()) << local_answer.status();
  // Bit-identical, not approximately equal: merging shard synopses by
  // linearity reconstructs the exact counters a single engine builds.
  EXPECT_EQ(*local_answer, *dist_answer);

  for (const uint64_t value : {f_updates[0].value, f_updates[1].value,
                               f_updates[2].value, uint64_t{4000}}) {
    StatusOr<int64_t> dist_point =
        coordinator.AnswerPointFrequency(*dist_freq, value);
    StatusOr<int64_t> local_point =
        engine.AnswerPointFrequency(*local_freq, value);
    ASSERT_TRUE(dist_point.ok()) << dist_point.status();
    ASSERT_TRUE(local_point.ok()) << local_point.status();
    EXPECT_EQ(*local_point, *dist_point) << "value " << value;
  }

  StatusOr<EstimateReport> report =
      coordinator.AnswerJoinWithReport(*dist_join);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->partial);
  ASSERT_EQ(2u, report->shards.size());
  for (const ShardContribution& shard : report->shards) {
    EXPECT_TRUE(shard.fresh) << shard.shard;
    EXPECT_EQ("healthy", shard.health) << shard.shard;
    EXPECT_EQ(0u, shard.epochs_behind) << shard.shard;
  }
}

TEST(CoordinatorTest, UnreachableShardStaysInsideRetryBudgetAndDeadline) {
  CoordinatorOptions options = FastOptions();
  options.rpc_timeout = milliseconds(100);
  Coordinator coordinator(
      {{"ghost", ::testing::TempDir() + "/no_such_worker.sock"}}, options);

  const auto start = steady_clock::now();
  const Status status =
      coordinator.RegisterStream(query::StreamSpec{"f", 1u << 12});
  const auto elapsed = steady_clock::now() - start;
  ASSERT_FALSE(status.ok());
  // 3 attempts × 100ms deadline + backoffs ≤ 10ms each, with slack.
  EXPECT_LT(elapsed, milliseconds(2000));

  const std::vector<query::DistShardStatus> statuses =
      coordinator.ShardStatuses();
  ASSERT_EQ(1u, statuses.size());
  EXPECT_EQ("down", statuses[0].health);
  EXPECT_GE(statuses[0].rpc_failures, 2u);
}

TEST(CoordinatorTest, ChaoticFrameCorruptionIsRetriedThrough) {
  const std::string dir = ::testing::TempDir();
  WorkerHarness worker(MakeWorkerOptions(dir + "/coord_chaos.sock", "s0"));
  CoordinatorOptions options = FastOptions();
  options.rpc_attempts = 6;
  Coordinator coordinator({{"s0", dir + "/coord_chaos.sock"}}, options);

  ASSERT_TRUE(coordinator.RegisterStream({"f", 1u << 12}).ok());
  ASSERT_TRUE(coordinator.RegisterStream({"g", 1u << 12}).ok());
  StatusOr<query::QueryId> join =
      coordinator.AddJoinQuery(SkimmedJoinSpec(), 7);
  ASSERT_TRUE(join.ok()) << join.status();
  ASSERT_TRUE(coordinator.UpdateBatch("f", Workload(1, 200)).ok());
  ASSERT_TRUE(coordinator.UpdateBatch("g", Workload(2, 200)).ok());
  StatusOr<double> clean_answer = coordinator.AnswerJoin(*join);
  ASSERT_TRUE(clean_answer.ok()) << clean_answer.status();

  // Probabilistic CRC corruption on every Send (workers and coordinator
  // alike — they share the process). The schedule is deterministic from
  // the printed seed; the retry budget must ride it out.
  const uint64_t kChaosSeed = 20260808;
  SCOPED_TRACE("chaos seed " + std::to_string(kChaosSeed));
  failpoint::SeedChaos(kChaosSeed);
  {
    failpoint::Spec spec;
    spec.one_in = 4;
    failpoint::ScopedFailpoint guard("dist:frame-crc", spec);
    StatusOr<double> chaotic_answer = coordinator.AnswerJoin(*join);
    ASSERT_TRUE(chaotic_answer.ok()) << chaotic_answer.status();
    EXPECT_EQ(*clean_answer, *chaotic_answer);
  }

  // Corruption gone: the next pull promotes the shard back to healthy.
  StatusOr<double> recovered = coordinator.AnswerJoin(*join);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(*clean_answer, *recovered);
  EXPECT_EQ("healthy", coordinator.ShardStatuses()[0].health);
}

TEST(CoordinatorTest, DeadShardYieldsFlaggedPartialAnswer) {
  const std::string dir = ::testing::TempDir();
  auto w0 = std::make_unique<WorkerHarness>(
      MakeWorkerOptions(dir + "/coord_part_0.sock", "s0"));
  WorkerHarness w1(MakeWorkerOptions(dir + "/coord_part_1.sock", "s1"));
  CoordinatorOptions options = FastOptions();
  options.rpc_timeout = milliseconds(200);
  Coordinator coordinator({{"s0", dir + "/coord_part_0.sock"},
                           {"s1", dir + "/coord_part_1.sock"}},
                          options);

  ASSERT_TRUE(coordinator.RegisterStream({"f", 1u << 12}).ok());
  ASSERT_TRUE(coordinator.RegisterStream({"g", 1u << 12}).ok());
  StatusOr<query::QueryId> join =
      coordinator.AddJoinQuery(SkimmedJoinSpec(), 7);
  ASSERT_TRUE(join.ok()) << join.status();
  ASSERT_TRUE(coordinator.UpdateBatch("f", Workload(1, 300)).ok());
  ASSERT_TRUE(coordinator.UpdateBatch("g", Workload(2, 300)).ok());

  // Warm the caches while both shards live.
  StatusOr<EstimateReport> healthy_report =
      coordinator.AnswerJoinWithReport(*join);
  ASSERT_TRUE(healthy_report.ok()) << healthy_report.status();
  ASSERT_FALSE(healthy_report->partial);

  // Kill shard s0 and answer again: the cached s0 delta keeps the answer
  // available, but the report must flag it partial and name the shard.
  w0.reset();
  StatusOr<EstimateReport> degraded =
      coordinator.AnswerJoinWithReport(*join);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->partial);
  ASSERT_EQ(2u, degraded->shards.size());
  bool found_stale_s0 = false;
  for (const ShardContribution& shard : degraded->shards) {
    if (shard.shard == "s0") {
      EXPECT_FALSE(shard.fresh);
      found_stale_s0 = true;
    } else {
      EXPECT_TRUE(shard.fresh) << shard.shard;
    }
  }
  EXPECT_TRUE(found_stale_s0);
  // The cached deltas cover everything ingested, so even the degraded
  // estimate matches the healthy one exactly.
  EXPECT_EQ(healthy_report->estimate, degraded->estimate);
}

TEST(CoordinatorTest, RestartedWorkerIsReadoptedWithoutDoubleMerge) {
  const std::string dir = ::testing::TempDir();
  WorkerOptions worker_options;
  worker_options.socket_path = dir + "/coord_restart.sock";
  worker_options.shard_name = "s0";
  worker_options.checkpoint_path = dir + "/coord_restart.ckpt";
  // TempDir persists across runs; a stale checkpoint would smuggle last
  // run's state into this one.
  ::unlink(worker_options.checkpoint_path.c_str());
  WorkerHarness worker(worker_options);
  Coordinator coordinator({{"s0", worker_options.socket_path}},
                          FastOptions());

  ASSERT_TRUE(coordinator.RegisterStream({"f", 1u << 12}).ok());
  ASSERT_TRUE(coordinator.RegisterStream({"g", 1u << 12}).ok());
  StatusOr<query::QueryId> join =
      coordinator.AddJoinQuery(SkimmedJoinSpec(), 7);
  ASSERT_TRUE(join.ok()) << join.status();
  ASSERT_TRUE(coordinator.UpdateBatch("f", Workload(1, 300)).ok());
  ASSERT_TRUE(coordinator.UpdateBatch("g", Workload(2, 300)).ok());
  ASSERT_TRUE(coordinator.CheckpointShards().ok());

  StatusOr<double> before = coordinator.AnswerJoin(*join);
  ASSERT_TRUE(before.ok()) << before.status();
  const uint64_t incarnation_before = coordinator.ShardStatuses()[0].incarnation;

  // Kill and restart from the checkpoint: the worker comes back with a
  // bumped incarnation, the coordinator re-adopts it (replaying the
  // registrations), and the answer is bit-identical — the full-state delta
  // replaces the cache wholesale, so nothing can merge twice.
  worker.Restart();
  StatusOr<double> after = coordinator.AnswerJoin(*join);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*before, *after);
  // Answer twice more: double-merge would inflate the estimate.
  StatusOr<double> again = coordinator.AnswerJoin(*join);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*before, *again);

  const std::vector<query::DistShardStatus> statuses =
      coordinator.ShardStatuses();
  EXPECT_GT(statuses[0].incarnation, incarnation_before);
  EXPECT_EQ("healthy", statuses[0].health);

  // The restarted shard keeps serving ingest too.
  ASSERT_TRUE(coordinator.UpdateBatch("f", Workload(3, 100)).ok());
  StatusOr<double> moved = coordinator.AnswerJoin(*join);
  ASSERT_TRUE(moved.ok()) << moved.status();
}

TEST(CoordinatorTest, ChainJoinMergedAnswerIsBitIdenticalToLocalEngine) {
  for (query::ChainJoinQuerySpec::Method method :
       {query::ChainJoinQuerySpec::Method::kAgmsGrid,
        query::ChainJoinQuerySpec::Method::kHashSketch}) {
    const std::string dir = ::testing::TempDir();
    const std::string tag =
        method == query::ChainJoinQuerySpec::Method::kAgmsGrid ? "grid"
                                                               : "hash";
    WorkerHarness w0(
        MakeWorkerOptions(dir + "/coord_chain_" + tag + "_0.sock", "s0"));
    WorkerHarness w1(
        MakeWorkerOptions(dir + "/coord_chain_" + tag + "_1.sock", "s1"));
    Coordinator coordinator({{"s0", dir + "/coord_chain_" + tag + "_0.sock"},
                             {"s1", dir + "/coord_chain_" + tag + "_1.sock"}},
                            FastOptions());
    query::Engine engine;

    ASSERT_TRUE(coordinator.RegisterRelation({"a", 1, 64}).ok());
    ASSERT_TRUE(coordinator.RegisterRelation({"b", 2, 64}).ok());
    ASSERT_TRUE(coordinator.RegisterRelation({"c", 1, 64}).ok());
    ASSERT_TRUE(engine.RegisterRelation({"a", 1, 64}).ok());
    ASSERT_TRUE(engine.RegisterRelation({"b", 2, 64}).ok());
    ASSERT_TRUE(engine.RegisterRelation({"c", 1, 64}).ok());

    query::ChainJoinQuerySpec spec;
    spec.relations = {"a", "b", "c"};
    spec.method = method;
    const uint64_t kSeed = 23;
    StatusOr<query::QueryId> dist_query =
        coordinator.AddChainJoinQuery(spec, kSeed);
    ASSERT_TRUE(dist_query.ok()) << dist_query.status();
    StatusOr<query::QueryId> local_query =
        engine.AddChainJoinQuery(spec, kSeed);
    ASSERT_TRUE(local_query.ok()) << local_query.status();

    // Tuples land on both shards (attributes[0] % 2 routing).
    Rng rng(5);
    for (int t = 0; t < 200; ++t) {
      const uint64_t x = rng.NextUint64Below(64);
      const uint64_t y = rng.NextUint64Below(64);
      ASSERT_TRUE(coordinator.UpdateRelation("a", {x}, 1).ok());
      ASSERT_TRUE(coordinator.UpdateRelation("b", {x, y}, 1).ok());
      ASSERT_TRUE(coordinator.UpdateRelation("c", {y}, 1).ok());
      ASSERT_TRUE(engine.UpdateRelation("a", {x}, 1).ok());
      ASSERT_TRUE(engine.UpdateRelation("b", {x, y}, 1).ok());
      ASSERT_TRUE(engine.UpdateRelation("c", {y}, 1).ok());
    }

    StatusOr<double> dist_answer = coordinator.AnswerChainJoin(*dist_query);
    StatusOr<double> local_answer = engine.AnswerChainJoin(*local_query);
    ASSERT_TRUE(dist_answer.ok()) << tag << ": " << dist_answer.status();
    ASSERT_TRUE(local_answer.ok()) << tag << ": " << local_answer.status();
    // Bit-identical: merging shard chain synopses by linearity rebuilds
    // the exact counters one engine would hold.
    EXPECT_EQ(*local_answer, *dist_answer) << tag;

    StatusOr<EstimateReport> report =
        coordinator.AnswerChainJoinWithReport(*dist_query);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_FALSE(report->partial) << tag;
    EXPECT_EQ(2u, report->shards.size()) << tag;
  }
}

TEST(CoordinatorTest, ChainJoinValidatesRegistrationAndArity) {
  const std::string dir = ::testing::TempDir();
  WorkerHarness w0(MakeWorkerOptions(dir + "/coord_chainval.sock", "s0"));
  Coordinator coordinator({{"s0", dir + "/coord_chainval.sock"}},
                          FastOptions());
  ASSERT_TRUE(coordinator.RegisterRelation({"a", 1, 64}).ok());
  EXPECT_EQ(coordinator.RegisterRelation({"a", 1, 64}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(coordinator.RegisterRelation({"bad", 0, 64}).ok());

  query::ChainJoinQuerySpec spec;
  spec.relations = {"a", "ghost"};
  EXPECT_FALSE(coordinator.AddChainJoinQuery(spec, 1).ok());

  EXPECT_EQ(coordinator.UpdateRelation("ghost", {1}, 1).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(coordinator.UpdateRelation("a", {1, 2}, 1).ok());  // arity
}

TEST(CoordinatorTest, FleetMetricsSnapshotLabelsShardSeries) {
  const std::string dir = ::testing::TempDir();
  WorkerHarness w0(MakeWorkerOptions(dir + "/coord_fleetm_0.sock", "s0"));
  WorkerHarness w1(MakeWorkerOptions(dir + "/coord_fleetm_1.sock", "s1"));
  Coordinator coordinator({{"s0", dir + "/coord_fleetm_0.sock"},
                           {"s1", dir + "/coord_fleetm_1.sock"}},
                          FastOptions());
  ASSERT_TRUE(coordinator.RegisterStream({"f", 1u << 12}).ok());
  const std::vector<query::StreamUpdate> updates = Workload(9, 500);
  ASSERT_TRUE(coordinator.UpdateBatch("f", updates).ok());

  StatusOr<metrics::Snapshot> snapshot = coordinator.FleetMetricsSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  // Every shard's ingest series appears with a shard label, and the
  // labeled values sum to the single-process total (every element landed
  // on exactly one shard).
  uint64_t labeled_sum = 0;
  int labeled_series = 0;
  bool saw_coordinator_series = false;
  for (const auto& [name, value] : snapshot->counters) {
    std::string base, shard;
    if (metrics::SplitShardLabel(name, &base, &shard)) {
      if (base == "ingest.f.elements_absorbed") {
        labeled_sum += value;
        ++labeled_series;
        EXPECT_TRUE(shard == "0" || shard == "1") << name;
      }
    } else if (name.rfind("dist.", 0) == 0) {
      saw_coordinator_series = true;  // coordinator's own series, unlabeled
    }
  }
  EXPECT_EQ(2, labeled_series);
  EXPECT_EQ(updates.size(), labeled_sum);
  EXPECT_TRUE(saw_coordinator_series);

  // The RPC latency histograms are part of the operator surface.
  bool saw_update_latency = false;
  for (const auto& [name, histogram] : snapshot->histograms) {
    if (name == "dist.rpc.update_batch.latency_ns") {
      saw_update_latency = true;
      EXPECT_GT(histogram.count, 0u);
    }
  }
  EXPECT_TRUE(saw_update_latency);

  // The merged snapshot renders per-shard Prometheus series and keeps the
  // sorted-by-name invariant the exporter's # TYPE grouping relies on.
  const std::string prom = metrics::ToPrometheusText(*snapshot);
  EXPECT_NE(prom.find("ingest_f_elements_absorbed{shard=\"0\"}"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("ingest_f_elements_absorbed{shard=\"1\"}"),
            std::string::npos)
      << prom;
}

TEST(CoordinatorTest, ScrapeFleetEventsTagsOriginShard) {
  const std::string dir = ::testing::TempDir();
  WorkerHarness w0(MakeWorkerOptions(dir + "/coord_fleete.sock", "s0"));
  Coordinator coordinator({{"s0", dir + "/coord_fleete.sock"}},
                          FastOptions());
  ASSERT_TRUE(coordinator.ProbeHealth().ok());

  // In-process workers share the global event log, so this emission IS a
  // worker-side event from the scrape's point of view.
  EventLog::Global().Emit(LogLevel::kWarn, "fleet_scrape_probe",
                          {{"payload", "torn frame on shard"}});
  ASSERT_TRUE(coordinator.ScrapeFleetEvents().ok());

  bool found_tagged_copy = false;
  for (const LogEvent& event :
       EventLog::Global().Tail(EventLog::kDefaultRingCapacity)) {
    if (event.event != "fleet_scrape_probe") continue;
    bool has_origin_shard = false, has_origin_seq = false, has_payload = false;
    for (const auto& [key, value] : event.fields) {
      if (key == "origin_shard" && value == "0") has_origin_shard = true;
      if (key == "origin_seq") has_origin_seq = true;
      if (key == "payload" && value == "torn frame on shard") {
        has_payload = true;
      }
    }
    if (has_origin_shard) {
      EXPECT_TRUE(has_origin_seq);
      EXPECT_TRUE(has_payload);  // original fields survive the re-emission
      found_tagged_copy = true;
    }
  }
  EXPECT_TRUE(found_tagged_copy);
}

TEST(CoordinatorTest, FleetTraceTogglesAndDumpsWorkerSpans) {
  const std::string dir = ::testing::TempDir();
  WorkerHarness w0(MakeWorkerOptions(dir + "/coord_fleett.sock", "s0"));
  Coordinator coordinator({{"s0", dir + "/coord_fleett.sock"}},
                          FastOptions());
  ASSERT_TRUE(coordinator.RegisterStream({"f", 1u << 12}).ok());

  (void)metrics::TraceRecorder::Global().DrainAsChromeTrace();  // clean slate
  ASSERT_TRUE(coordinator.SetFleetTracing(true).ok());
  ASSERT_TRUE(coordinator.UpdateBatch("f", Workload(4, 50)).ok());
  ASSERT_TRUE(coordinator.SetFleetTracing(false).ok());

  StatusOr<std::string> trace = coordinator.DumpFleetTrace();
  ASSERT_TRUE(trace.ok()) << trace.status();
  // The in-process worker shares this process's recorder, so its ingest
  // span and the coordinator's fan-out root both land in the dump, linked
  // by the propagated ids (the multi-process version of this assertion
  // lives in dist_integration_test).
  EXPECT_NE(trace->find("\"coordinator.update_batch\""), std::string::npos)
      << *trace;
  EXPECT_NE(trace->find("\"worker.ingest\""), std::string::npos) << *trace;
  EXPECT_NE(trace->find("\"trace_id\""), std::string::npos) << *trace;
  EXPECT_NE(trace->find("\"process_name\""), std::string::npos) << *trace;
  // Dump drains: a second dump is empty until tracing records again.
  StatusOr<std::string> empty = coordinator.DumpFleetTrace();
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->find("\"worker.ingest\""), std::string::npos);
}

// Sampling and partitioned-AGMS synopses do not serialize, so they cannot
// travel as deltas: the coordinator refuses them before anything reaches
// the wire, and the refusal leaves nothing behind to replay.
TEST(CoordinatorTest, RejectsNonDistributableSpecs) {
  const std::string dir = ::testing::TempDir();
  WorkerOptions options = MakeWorkerOptions(dir + "/coord_reject.sock", "s0");
  options.checkpoint_path = dir + "/coord_reject.ckpt";
  ::unlink(options.checkpoint_path.c_str());
  WorkerHarness w0(options);
  Coordinator coordinator({{"s0", options.socket_path}}, FastOptions());
  ASSERT_TRUE(coordinator.RegisterStream({"f", 1u << 12}).ok());
  ASSERT_TRUE(coordinator.RegisterStream({"g", 1u << 12}).ok());

  query::JoinQuerySpec sampling = SkimmedJoinSpec();
  sampling.estimator.kind = core::EstimatorKind::kSampling;
  EXPECT_EQ(coordinator.AddJoinQuery(sampling, 1).status().code(),
            StatusCode::kUnimplemented);
  query::JoinQuerySpec partitioned = SkimmedJoinSpec();
  partitioned.estimator.kind = core::EstimatorKind::kPartitionedAgms;
  EXPECT_EQ(coordinator.AddJoinQuery(partitioned, 1).status().code(),
            StatusCode::kInvalidArgument);  // no plan can reach a worker
  stream::FrequencyVector stats(1u << 12);
  for (uint64_t v = 0; v < stats.domain_size(); ++v) stats.Add(v, 1);
  partitioned.estimator.partition_plan =
      std::make_shared<sketch::PartitionPlan>(
          *sketch::PlanPartitions(stats, stats, 2, 64, 4));
  EXPECT_EQ(coordinator.AddJoinQuery(partitioned, 1).status().code(),
            StatusCode::kUnimplemented);

  // Nothing was recorded: a distributable query still registers, and the
  // registrations a restarted worker is re-adopted with all replay.
  StatusOr<query::QueryId> join =
      coordinator.AddJoinQuery(SkimmedJoinSpec(), 1);
  ASSERT_TRUE(join.ok()) << join.status();
  ASSERT_TRUE(coordinator.CheckpointShards().ok());
  w0.Restart();
  ASSERT_TRUE(coordinator.UpdateBatch("f", Workload(1, 50)).ok());
  EXPECT_TRUE(coordinator.AnswerJoin(*join).ok());
}

// The coordinator validates through its own engine: every spec a local
// engine refuses gets the same status code, and nothing refused reaches
// the wire or the replay log. A refused spec in the log would poison the
// replay after a worker restart: the first update would fail and later
// registrations would never be re-sent.
TEST(CoordinatorTest, RefusesWhatALocalEngineRefusesAndRecordsNothing) {
  const std::string dir = ::testing::TempDir();
  WorkerOptions options = MakeWorkerOptions(dir + "/coord_refuse.sock", "s0");
  options.checkpoint_path = dir + "/coord_refuse.ckpt";
  ::unlink(options.checkpoint_path.c_str());
  WorkerHarness worker(options);
  Coordinator coordinator({{"s0", options.socket_path}}, FastOptions());
  query::Engine local;
  for (const Registration& registration :
       {Registration{query::StreamSpec{"f", 1u << 12}},
        Registration{query::StreamSpec{"g", 1u << 12}},
        Registration{query::StreamSpec{"h", 1u << 13}},
        Registration{query::RelationSpec{"a", 1, 64}},
        Registration{query::RelationSpec{"b", 2, 64}}}) {
    ASSERT_TRUE(Register(coordinator, registration).ok());
    ASSERT_TRUE(Register(local, registration).ok());
  }

  query::JoinQuerySpec unequal_domains = SkimmedJoinSpec();
  unequal_domains.right_stream = "h";
  query::FrequencyQuerySpec no_tables;
  no_tables.stream = "f";
  no_tables.num_tables = 0;
  query::ChainJoinQuerySpec wide_end;
  wide_end.relations = {"b", "a"};
  query::JoinQuerySpec planless = SkimmedJoinSpec();
  planless.estimator.kind = core::EstimatorKind::kPartitionedAgms;
  const std::vector<std::pair<std::string, Registration>> refused = {
      {"join over unequal domains", query::QuerySpec(unequal_domains)},
      {"frequency query with no tables", query::QuerySpec(no_tables)},
      {"stream of domain 1", query::StreamSpec{"tiny", 1}},
      {"relation of arity 3", query::RelationSpec{"triple", 3, 64}},
      {"chain ending in an arity-2 relation", query::QuerySpec(wide_end)},
      {"plan-less partitioned-AGMS join", query::QuerySpec(planless)},
  };
  for (const auto& [what, registration] : refused) {
    const Status expected = Register(local, registration);
    ASSERT_FALSE(expected.ok()) << what;
    EXPECT_EQ(Register(coordinator, registration).code(), expected.code())
        << what;
  }
  // Refused by the fleet alone: a sampling synopsis does not serialize,
  // and distinct counts have no fleet answer.
  query::JoinQuerySpec sampling = SkimmedJoinSpec();
  sampling.estimator.kind = core::EstimatorKind::kSampling;
  EXPECT_EQ(coordinator.AddQuery(sampling, 1).status().code(),
            StatusCode::kUnimplemented);
  query::DistinctCountQuerySpec distinct;
  distinct.stream = "f";
  EXPECT_EQ(coordinator.AddQuery(distinct, 1).status().code(),
            StatusCode::kUnimplemented);

  query::FrequencyQuerySpec frequency;
  frequency.stream = "f";
  frequency.space_counters = 512;
  StatusOr<query::QueryId> dist_freq =
      coordinator.AddFrequencyQuery(frequency, 3);
  ASSERT_TRUE(dist_freq.ok()) << dist_freq.status();
  StatusOr<query::QueryId> local_freq = local.AddFrequencyQuery(frequency, 3);
  ASSERT_TRUE(local_freq.ok()) << local_freq.status();
  ASSERT_TRUE(coordinator.CheckpointShards().ok());

  // Restart: the replay holds only accepted registrations, so it runs to
  // the end and the very first update lands.
  const uint64_t incarnation_before =
      coordinator.ShardStatuses()[0].incarnation;
  const uint64_t events_before = LastEventSequence();
  worker.Restart();
  const std::vector<query::StreamUpdate> updates = Workload(4, 300);
  ASSERT_TRUE(coordinator.UpdateBatch("f", updates).ok());
  ASSERT_TRUE(local.UpdateBatch("f", updates).ok());
  EXPECT_TRUE(ReadoptedSince(events_before, "s0"));
  EXPECT_EQ(coordinator.ShardStatuses()[0].incarnation,
            incarnation_before + 1);

  // The query registered after the refusals answers like the local one,
  // and inherits its domain check.
  for (const uint64_t value : {updates[0].value, updates[1].value}) {
    StatusOr<int64_t> dist_point =
        coordinator.AnswerPointFrequency(*dist_freq, value);
    ASSERT_TRUE(dist_point.ok()) << dist_point.status();
    EXPECT_EQ(*dist_point, *local.AnswerPointFrequency(*local_freq, value));
  }
  EXPECT_EQ(coordinator.AnswerPointFrequency(*dist_freq, 1u << 12)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

// A restarted worker that refuses a replayed registration is never adopted
// half-registered: the refusal closes the channel and fails as a shard
// failure, so every later call shakes hands again (and is refused again)
// until a worker that takes the whole replay comes back.
TEST(CoordinatorTest, RefusedReplayLeavesShardUnadoptedUntilItCanServe) {
  const std::string dir = ::testing::TempDir();
  WorkerOptions options = MakeWorkerOptions(dir + "/coord_replay.sock", "s0");
  options.checkpoint_path = dir + "/coord_replay.ckpt";
  ::unlink(options.checkpoint_path.c_str());
  WorkerHarness worker(options);
  Coordinator coordinator({{"s0", options.socket_path}}, FastOptions());
  query::Engine local;
  for (const Registration& registration :
       {Registration{query::StreamSpec{"f", 1u << 12}},
        Registration{query::StreamSpec{"g", 1u << 12}},
        Registration{query::QuerySpec(SkimmedJoinSpec())}}) {
    ASSERT_TRUE(Register(coordinator, registration).ok());
    ASSERT_TRUE(Register(local, registration).ok());
  }
  query::FrequencyQuerySpec frequency;
  frequency.stream = "f";
  frequency.space_counters = 512;
  StatusOr<query::QueryId> dist_freq =
      coordinator.AddFrequencyQuery(frequency, 3);
  ASSERT_TRUE(dist_freq.ok()) << dist_freq.status();
  StatusOr<query::QueryId> local_freq = local.AddFrequencyQuery(frequency, 3);
  ASSERT_TRUE(local_freq.ok()) << local_freq.status();
  const uint64_t incarnation = coordinator.ShardStatuses()[0].incarnation;

  // The worker comes back from a checkpoint whose g is half as wide: the
  // stream replay passes (idempotent by name), the f⋈g join is refused.
  {
    query::Engine narrow;
    ASSERT_TRUE(narrow.RegisterStream({"f", 1u << 12}).ok());
    ASSERT_TRUE(narrow.RegisterStream({"g", 1u << 11}).ok());
    ASSERT_TRUE(narrow.SaveCheckpoint(options.checkpoint_path).ok());
  }
  worker.Restart();
  const std::vector<query::StreamUpdate> updates = Workload(5, 300);
  EXPECT_FALSE(coordinator.UpdateBatch("f", updates).ok());
  EXPECT_FALSE(coordinator.UpdateBatch("f", updates).ok());
  const std::vector<query::DistShardStatus> statuses =
      coordinator.ShardStatuses();
  EXPECT_EQ(statuses[0].incarnation, incarnation);
  EXPECT_EQ(statuses[0].health, "down");

  // Restarted empty, the worker takes the whole replay and is re-adopted;
  // the query registered after the join answers like the local engine.
  ::unlink(options.checkpoint_path.c_str());
  const uint64_t events_before = LastEventSequence();
  worker.Restart();
  ASSERT_TRUE(coordinator.UpdateBatch("f", updates).ok());
  ASSERT_TRUE(local.UpdateBatch("f", updates).ok());
  EXPECT_TRUE(ReadoptedSince(events_before, "s0"));
  EXPECT_NE(coordinator.ShardStatuses()[0].incarnation, incarnation);
  for (const uint64_t value : {updates[0].value, updates[1].value}) {
    StatusOr<int64_t> dist_point =
        coordinator.AnswerPointFrequency(*dist_freq, value);
    ASSERT_TRUE(dist_point.ok()) << dist_point.status();
    EXPECT_EQ(*dist_point, *local.AnswerPointFrequency(*local_freq, value));
  }
  EXPECT_EQ(coordinator.ShardStatuses()[0].health, "healthy");
}

// One rule for every kind: until some shard has delivered a delta there is
// nothing to merge, and the answer is FAILED_PRECONDITION — never an
// estimate from an empty synopsis.
TEST(CoordinatorTest, NoDeliveredDeltaIsFailedPreconditionForEveryKind) {
  const std::string dir = ::testing::TempDir();
  WorkerHarness worker(MakeWorkerOptions(dir + "/coord_nodelta.sock", "s0"));
  Coordinator coordinator({{"s0", dir + "/coord_nodelta.sock"}},
                          FastOptions());
  ASSERT_TRUE(coordinator.RegisterStream({"f", 1u << 12}).ok());
  ASSERT_TRUE(coordinator.RegisterStream({"g", 1u << 12}).ok());
  ASSERT_TRUE(coordinator.RegisterRelation({"a", 1, 64}).ok());
  ASSERT_TRUE(coordinator.RegisterRelation({"b", 2, 64}).ok());
  ASSERT_TRUE(coordinator.RegisterRelation({"c", 1, 64}).ok());
  StatusOr<query::QueryId> join =
      coordinator.AddJoinQuery(SkimmedJoinSpec(), 7);
  ASSERT_TRUE(join.ok()) << join.status();
  query::FrequencyQuerySpec frequency;
  frequency.stream = "f";
  frequency.space_counters = 512;
  StatusOr<query::QueryId> freq = coordinator.AddFrequencyQuery(frequency, 8);
  ASSERT_TRUE(freq.ok()) << freq.status();
  query::ChainJoinQuerySpec chain_spec;
  chain_spec.relations = {"a", "b", "c"};
  StatusOr<query::QueryId> chain = coordinator.AddChainJoinQuery(chain_spec, 9);
  ASSERT_TRUE(chain.ok()) << chain.status();

  worker.Stop();
  EXPECT_EQ(coordinator.AnswerJoin(*join).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(coordinator.AnswerJoinWithReport(*join).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(coordinator.AnswerPointFrequency(*freq, 5).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(coordinator.AnswerChainJoin(*chain).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(coordinator.AnswerChainJoinWithReport(*chain).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(coordinator.AnswerJoin(query::QueryId{999}).status().code(),
            StatusCode::kNotFound);
}

// Predicates and SUM inputs travel in the registration's spec record, so
// each worker filters and weights its own elements; shard merges stay
// exact by linearity.
TEST(CoordinatorTest, PredicatedAndSumQueriesMatchLocalEngine) {
  const std::string dir = ::testing::TempDir();
  WorkerHarness w0(MakeWorkerOptions(dir + "/coord_pred_0.sock", "s0"));
  WorkerHarness w1(MakeWorkerOptions(dir + "/coord_pred_1.sock", "s1"));
  Coordinator coordinator({{"s0", dir + "/coord_pred_0.sock"},
                           {"s1", dir + "/coord_pred_1.sock"}},
                          FastOptions());
  query::Engine engine;
  for (const char* name : {"f", "g"}) {
    ASSERT_TRUE(coordinator.RegisterStream({name, 1u << 12}).ok());
    ASSERT_TRUE(engine.RegisterStream({name, 1u << 12}).ok());
  }

  query::JoinQuerySpec predicated = SkimmedJoinSpec();
  predicated.left_predicate = query::RangePredicate{100, 3000};
  predicated.right_predicate = query::RangePredicate{0, 2047};
  query::JoinQuerySpec sum_join = SkimmedJoinSpec();
  sum_join.left_input = query::AggregateInput::kMeasure;
  sum_join.estimator.kind = core::EstimatorKind::kHashSketch;
  query::SelfJoinQuerySpec sum_self;
  sum_self.stream = "g";
  sum_self.estimator.space_counters = 512;
  sum_self.input = query::AggregateInput::kMeasure;
  sum_self.predicate = query::RangePredicate{10, 4000};
  query::FrequencyQuerySpec frequency;
  frequency.stream = "f";
  frequency.space_counters = 512;
  frequency.predicate = query::RangePredicate{0, 999};

  std::vector<std::pair<query::QueryId, query::QueryId>> joins;
  for (const query::JoinQuerySpec& spec : {predicated, sum_join}) {
    StatusOr<query::QueryId> dist = coordinator.AddJoinQuery(spec, 41);
    StatusOr<query::QueryId> local = engine.AddJoinQuery(spec, 41);
    ASSERT_TRUE(dist.ok()) << dist.status();
    ASSERT_TRUE(local.ok()) << local.status();
    joins.emplace_back(*dist, *local);
  }
  StatusOr<query::QueryId> dist_self =
      coordinator.AddSelfJoinQuery(sum_self, 42);
  StatusOr<query::QueryId> local_self = engine.AddSelfJoinQuery(sum_self, 42);
  ASSERT_TRUE(dist_self.ok()) << dist_self.status();
  ASSERT_TRUE(local_self.ok()) << local_self.status();
  joins.emplace_back(*dist_self, *local_self);
  StatusOr<query::QueryId> dist_freq =
      coordinator.AddFrequencyQuery(frequency, 43);
  StatusOr<query::QueryId> local_freq = engine.AddFrequencyQuery(frequency, 43);
  ASSERT_TRUE(dist_freq.ok()) << dist_freq.status();
  ASSERT_TRUE(local_freq.ok()) << local_freq.status();

  for (const auto& [stream, seed] :
       {std::pair<const char*, uint64_t>{"f", 1}, {"g", 2}}) {
    std::vector<query::StreamUpdate> updates = Workload(seed, 800);
    for (size_t i = 0; i < updates.size(); ++i) {
      updates[i].measure = static_cast<int64_t>(i % 13) - 3;
    }
    ASSERT_TRUE(coordinator.UpdateBatch(stream, updates).ok());
    ASSERT_TRUE(engine.UpdateBatch(stream, updates).ok());
  }

  for (const auto& [dist, local] : joins) {
    StatusOr<double> dist_answer = coordinator.AnswerJoin(dist);
    StatusOr<double> local_answer = engine.AnswerJoin(local);
    ASSERT_TRUE(dist_answer.ok()) << dist_answer.status();
    ASSERT_TRUE(local_answer.ok()) << local_answer.status();
    EXPECT_EQ(*local_answer, *dist_answer) << "query " << local;
    EXPECT_NE(*local_answer, 0.0) << "query " << local;
  }
  for (const uint64_t value : {uint64_t{5}, uint64_t{500}, uint64_t{2000}}) {
    EXPECT_EQ(*engine.AnswerPointFrequency(*local_freq, value),
              *coordinator.AnswerPointFrequency(*dist_freq, value))
        << value;
  }
}

// Chain joins checkpoint like every other synopsis, so a worker holding
// one restarts from its checkpoint and the coordinator's merged answer is
// unchanged, for both chain methods.
TEST(CoordinatorTest, WorkerWithChainJoinRestartsFromCheckpoint) {
  for (const query::ChainJoinQuerySpec::Method method :
       {query::ChainJoinQuerySpec::Method::kAgmsGrid,
        query::ChainJoinQuerySpec::Method::kHashSketch}) {
    const std::string dir = ::testing::TempDir();
    const std::string tag =
        method == query::ChainJoinQuerySpec::Method::kAgmsGrid ? "grid"
                                                               : "hash";
    std::vector<std::unique_ptr<WorkerHarness>> workers;
    std::vector<ShardAddress> shards;
    for (int i = 0; i < 2; ++i) {
      WorkerOptions options = MakeWorkerOptions(
          dir + "/coord_chain_restart_" + tag + std::to_string(i) + ".sock",
          "s" + std::to_string(i));
      options.checkpoint_path =
          dir + "/coord_chain_restart_" + tag + std::to_string(i) + ".ckpt";
      // TempDir persists across runs; a stale checkpoint would smuggle
      // last run's state into this one.
      ::unlink(options.checkpoint_path.c_str());
      shards.push_back({options.shard_name, options.socket_path});
      workers.push_back(std::make_unique<WorkerHarness>(options));
    }
    Coordinator coordinator(shards, FastOptions());
    ASSERT_TRUE(coordinator.RegisterRelation({"a", 1, 64}).ok());
    ASSERT_TRUE(coordinator.RegisterRelation({"b", 2, 64}).ok());
    ASSERT_TRUE(coordinator.RegisterRelation({"c", 1, 64}).ok());
    query::ChainJoinQuerySpec spec;
    spec.relations = {"a", "b", "c"};
    spec.method = method;
    spec.num_means = 16;
    spec.num_medians = 3;
    StatusOr<query::QueryId> chain = coordinator.AddChainJoinQuery(spec, 9);
    ASSERT_TRUE(chain.ok()) << chain.status();
    Rng rng(11);
    for (int t = 0; t < 120; ++t) {
      const uint64_t x = rng.NextUint64Below(64);
      const uint64_t y = rng.NextUint64Below(64);
      ASSERT_TRUE(coordinator.UpdateRelation("a", {x}, 1).ok());
      ASSERT_TRUE(coordinator.UpdateRelation("b", {x, y}, 1).ok());
      ASSERT_TRUE(coordinator.UpdateRelation("c", {y}, 1).ok());
    }
    ASSERT_TRUE(coordinator.CheckpointShards().ok());
    StatusOr<double> before = coordinator.AnswerChainJoin(*chain);
    ASSERT_TRUE(before.ok()) << tag << ": " << before.status();
    const std::vector<query::DistShardStatus> before_restart =
        coordinator.ShardStatuses();

    for (const auto& worker : workers) worker->Restart();
    StatusOr<double> after = coordinator.AnswerChainJoin(*chain);
    ASSERT_TRUE(after.ok()) << tag << ": " << after.status();
    EXPECT_EQ(*before, *after) << tag;
    const std::vector<query::DistShardStatus> statuses =
        coordinator.ShardStatuses();
    ASSERT_EQ(statuses.size(), before_restart.size());
    for (size_t i = 0; i < statuses.size(); ++i) {
      EXPECT_EQ(statuses[i].incarnation, before_restart[i].incarnation + 1)
          << tag << " " << statuses[i].shard;
    }
  }
}

// A worker handed a registration frame for a synopsis past the
// deserialization cap answers an error frame and keeps serving: no frame
// can make it allocate what no record could hold.
TEST(CoordinatorTest, WorkerRefusesAnOversizedRegistrationFrame) {
  const std::string socket = ::testing::TempDir() + "/worker_oversized.sock";
  WorkerHarness worker(MakeWorkerOptions(socket, "s0"));
  StatusOr<FrameChannel> channel =
      ConnectUnix(socket, DeadlineAfter(milliseconds(2000)));
  ASSERT_TRUE(channel.ok()) << channel.status();
  const auto call = [&channel](MessageType type, const std::string& payload) {
    return Call(*channel, type, payload, DeadlineAfter(milliseconds(2000)));
  };
  ASSERT_TRUE(
      call(MessageType::kRegisterStream, EncodeStreamReg({"f", 1u << 12}))
          .ok());
  query::FrequencyQuerySpec frequency;
  frequency.stream = "f";
  frequency.space_counters = 100'000'000'000;
  EXPECT_EQ(call(MessageType::kRegisterQuery,
                 EncodeQueryReg({"oversized", 1, frequency}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  frequency.space_counters = 512;
  EXPECT_TRUE(call(MessageType::kRegisterQuery,
                   EncodeQueryReg({"normal", 1, frequency}))
                  .ok());
  EXPECT_TRUE(call(MessageType::kPing, "").ok());
}

}  // namespace
}  // namespace dist
}  // namespace skimjoin
