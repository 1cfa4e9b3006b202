// Multi-process integration test of the distributed runtime: real worker
// processes (the skimjoin_cli binary, passed as argv[1]) serving real Unix
// sockets, driven by an in-test dist::Coordinator.
//
//   * All shards healthy → coordinator answers bit-identical to a single
//     local engine fed the same stream.
//   * SIGKILL a worker mid-ingest → answers degrade to flagged partials
//     naming the missing shard; restart from checkpoint → re-adopted,
//     answers bit-identical again with no double-merge.
//   * A worker without a checkpoint restarts empty under a fresh
//     incarnation and is re-adopted, so ingest resumes at once.
//   * A seeded kill/restart chaos schedule (seed from SKIMJOIN_CHAOS_SEED,
//     always printed) never crashes or hangs the coordinator, and every
//     answer stays inside the deadline × retry budget envelope.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "dist/frame.h"
#include "dist/protocol.h"
#include "gtest/gtest.h"
#include "query/engine.h"
#include "util/random.h"

namespace skimjoin {
namespace dist {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::string g_cli_path;  // set by main from argv[1]

uint64_t ChaosSeed() {
  if (const char* env = std::getenv("SKIMJOIN_CHAOS_SEED")) {
    char* end = nullptr;
    const uint64_t seed = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return seed;
  }
  return 0xC0FFEE2026ULL;
}

/// One worker process: spawn (fork + exec of the CLI), SIGKILL, restart.
class WorkerProcess {
 public:
  WorkerProcess(std::string socket_path, std::string shard_name,
                std::string checkpoint_path, int checkpoint_every)
      : socket_path_(std::move(socket_path)),
        shard_name_(std::move(shard_name)),
        checkpoint_path_(std::move(checkpoint_path)),
        checkpoint_every_(checkpoint_every) {}

  ~WorkerProcess() { Kill(); }

  void Start() {
    ASSERT_EQ(-1, pid_) << "already running";
    std::vector<std::string> args = {
        g_cli_path,
        "--worker=" + socket_path_,
        "--shard=" + shard_name_,
    };
    if (!checkpoint_path_.empty()) {
      args.push_back("--worker_checkpoint=" + checkpoint_path_);
      args.push_back("--checkpoint_every=" + std::to_string(checkpoint_every_));
    }
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(g_cli_path.c_str(), argv.data());
      _exit(127);
    }
    pid_ = pid;
    WaitServing();
  }

  void Kill() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid_, &wstatus, 0);
    pid_ = -1;
  }

  bool running() const { return pid_ >= 0; }
  const std::string& socket_path() const { return socket_path_; }
  const std::string& shard_name() const { return shard_name_; }

 private:
  /// Blocks until the worker answers a ping (it prints its readiness line
  /// once the socket is bound; pinging is how another process can tell).
  void WaitServing() {
    const auto give_up = steady_clock::now() + milliseconds(10000);
    while (steady_clock::now() < give_up) {
      StatusOr<FrameChannel> channel =
          ConnectUnix(socket_path_, DeadlineAfter(milliseconds(200)));
      if (channel.ok()) {
        StatusOr<Frame> pong = Call(*channel, MessageType::kPing, "",
                                    DeadlineAfter(milliseconds(500)));
        if (pong.ok()) return;
      }
      std::this_thread::sleep_for(milliseconds(20));
    }
    FAIL() << "worker " << shard_name_ << " never became ready";
  }

  std::string socket_path_;
  std::string shard_name_;
  std::string checkpoint_path_;
  int checkpoint_every_ = 0;
  pid_t pid_ = -1;
};

CoordinatorOptions FastOptions() {
  CoordinatorOptions options;
  options.rpc_timeout = milliseconds(1000);
  options.rpc_attempts = 3;
  options.backoff_base = milliseconds(1);
  options.backoff_cap = milliseconds(20);
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

std::vector<query::StreamUpdate> Workload(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<query::StreamUpdate> updates;
  updates.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    updates.push_back({rng.NextUint64Below(1u << 12), 1, 0});
  }
  return updates;
}

/// TempDir persists across runs; a worker finding last run's checkpoint
/// would "restore" state this run never ingested.
std::string FreshPath(const std::string& path) {
  ::unlink(path.c_str());
  return path;
}

TEST(DistIntegrationTest, AllHealthyAnswersMatchLocalEngineBitForBit) {
  const std::string dir = ::testing::TempDir();
  WorkerProcess w0(dir + "/int_ident_0.sock", "s0", "", 0);
  WorkerProcess w1(dir + "/int_ident_1.sock", "s1", "", 0);
  ASSERT_NO_FATAL_FAILURE(w0.Start());
  ASSERT_NO_FATAL_FAILURE(w1.Start());

  Coordinator coordinator(
      {{"s0", w0.socket_path()}, {"s1", w1.socket_path()}}, FastOptions());
  query::Engine engine;
  for (const auto& stream : {query::StreamSpec{"f", 1u << 12},
                             query::StreamSpec{"g", 1u << 12}}) {
    ASSERT_TRUE(coordinator.RegisterStream(stream).ok());
    ASSERT_TRUE(engine.RegisterStream(stream).ok());
  }
  const uint64_t kSeed = 99;
  StatusOr<query::QueryId> dist_join =
      coordinator.AddJoinQuery(SkimmedJoinSpec(), kSeed);
  ASSERT_TRUE(dist_join.ok()) << dist_join.status();
  StatusOr<query::QueryId> local_join =
      engine.AddJoinQuery(SkimmedJoinSpec(), kSeed);
  ASSERT_TRUE(local_join.ok()) << local_join.status();

  const auto f_updates = Workload(1, 800);
  const auto g_updates = Workload(2, 800);
  ASSERT_TRUE(coordinator.UpdateBatch("f", f_updates).ok());
  ASSERT_TRUE(coordinator.UpdateBatch("g", g_updates).ok());
  ASSERT_TRUE(engine.UpdateBatch("f", f_updates).ok());
  ASSERT_TRUE(engine.UpdateBatch("g", g_updates).ok());

  StatusOr<double> dist_answer = coordinator.AnswerJoin(*dist_join);
  StatusOr<double> local_answer = engine.AnswerJoin(*local_join);
  ASSERT_TRUE(dist_answer.ok()) << dist_answer.status();
  ASSERT_TRUE(local_answer.ok()) << local_answer.status();
  EXPECT_EQ(*local_answer, *dist_answer);

  StatusOr<EstimateReport> report =
      coordinator.AnswerJoinWithReport(*dist_join);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->partial);
}

// ---- fleet health acceptance --------------------------------------------

// The fleet doctor: an undersized sketch saturated on every shard must
// surface the collision finding from EACH worker process, labeled with its
// shard index, naming the worker-local query id and the joined streams.
TEST(DistIntegrationTest, FleetHealthReportLabelsShardFindings) {
  const std::string dir = ::testing::TempDir();
  WorkerProcess w0(dir + "/int_health_0.sock", "s0", "", 0);
  WorkerProcess w1(dir + "/int_health_1.sock", "s1", "", 0);
  ASSERT_NO_FATAL_FAILURE(w0.Start());
  ASSERT_NO_FATAL_FAILURE(w1.Start());

  Coordinator coordinator(
      {{"s0", w0.socket_path()}, {"s1", w1.socket_path()}}, FastOptions());
  constexpr uint64_t kDomain = 1u << 13;
  for (const auto& stream : {query::StreamSpec{"f", kDomain},
                             query::StreamSpec{"g", kDomain}}) {
    ASSERT_TRUE(coordinator.RegisterStream(stream).ok());
  }
  query::JoinQuerySpec spec;
  spec.left_stream = "f";
  spec.right_stream = "g";
  spec.estimator.kind = core::EstimatorKind::kHashSketch;
  spec.estimator.space_counters = 128;  // undersized for 4096 values/shard
  StatusOr<query::QueryId> join = coordinator.AddJoinQuery(spec, 17);
  ASSERT_TRUE(join.ok()) << join.status();

  // Sweep the whole domain so each shard's half saturates its sketch.
  std::vector<query::StreamUpdate> sweep;
  sweep.reserve(kDomain);
  for (uint64_t value = 0; value < kDomain; ++value) {
    sweep.push_back({value, 1, 0});
  }
  ASSERT_TRUE(coordinator.UpdateBatch("f", sweep).ok());
  ASSERT_TRUE(coordinator.UpdateBatch("g", sweep).ok());

  StatusOr<query::HealthReport> fleet = coordinator.FleetHealthReport();
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  std::set<std::string> shards_reporting;
  for (const query::HealthFinding& finding : fleet->findings) {
    EXPECT_FALSE(finding.shard.empty()) << finding.message;
    if (finding.rule != "collision-pressure") continue;
    shards_reporting.insert(finding.shard);
    EXPECT_EQ(finding.subject, "query 1");
    EXPECT_NE(finding.message.find("f⋈g"), std::string::npos)
        << finding.message;
  }
  EXPECT_EQ(shards_reporting, (std::set<std::string>{"0", "1"}));

  // A killed shard becomes an `unreachable` finding instead of vanishing.
  w1.Kill();
  fleet = coordinator.FleetHealthReport();
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  bool saw_unreachable = false;
  for (const query::HealthFinding& finding : fleet->findings) {
    if (finding.rule == "unreachable") {
      saw_unreachable = true;
      EXPECT_EQ(finding.subject, "shard s1");
      EXPECT_EQ(finding.shard, "1");
    }
  }
  EXPECT_TRUE(saw_unreachable);
}

// ---- fleet telemetry acceptance ----------------------------------------

// Lightweight Chrome-trace scanner: yields each top-level event object of
// the "traceEvents" array (the root object is depth 1, events depth 2;
// their "args" objects nest deeper and stay inside the captured slice).
std::vector<std::string> TraceEventObjects(const std::string& trace_json) {
  std::vector<std::string> events;
  int depth = 0;
  size_t start = 0;
  bool in_string = false;
  for (size_t i = 0; i < trace_json.size(); ++i) {
    const char c = trace_json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (++depth == 2) start = i;
    } else if (c == '}') {
      if (depth-- == 2) {
        events.push_back(trace_json.substr(start, i - start + 1));
      }
    }
  }
  return events;
}

// Extracts `"key":"value"` or `"key":<number>` from one event object
// (first occurrence; nested args are fair game).
std::string JsonField(const std::string& object, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = object.find(needle);
  if (at == std::string::npos) return "";
  size_t from = at + needle.size();
  if (from < object.size() && object[from] == '"') {
    const size_t end = object.find('"', from + 1);
    if (end == std::string::npos) return "";
    return object.substr(from + 1, end - from - 1);
  }
  size_t end = from;
  while (end < object.size() && object[end] != ',' && object[end] != '}') {
    ++end;
  }
  return object.substr(from, end - from);
}

TEST(DistIntegrationTest, FleetTelemetryMergesTracesAndMetricsAcrossProcesses) {
  const std::string dir = ::testing::TempDir();
  WorkerProcess w0(dir + "/int_fleet_0.sock", "s0", "", 0);
  WorkerProcess w1(dir + "/int_fleet_1.sock", "s1", "", 0);
  ASSERT_NO_FATAL_FAILURE(w0.Start());
  ASSERT_NO_FATAL_FAILURE(w1.Start());

  Coordinator coordinator(
      {{"s0", w0.socket_path()}, {"s1", w1.socket_path()}}, FastOptions());
  query::Engine engine;
  ASSERT_TRUE(coordinator.RegisterStream({"f", 1u << 12}).ok());
  ASSERT_TRUE(engine.RegisterStream({"f", 1u << 12}).ok());
  for (const query::RelationSpec& relation :
       {query::RelationSpec{"a", 1, 64}, query::RelationSpec{"b", 2, 64},
        query::RelationSpec{"c", 1, 64}}) {
    ASSERT_TRUE(coordinator.RegisterRelation(relation).ok());
    ASSERT_TRUE(engine.RegisterRelation(relation).ok());
  }
  query::ChainJoinQuerySpec chain;
  chain.relations = {"a", "b", "c"};
  const uint64_t kSeed = 23;
  StatusOr<query::QueryId> dist_chain =
      coordinator.AddChainJoinQuery(chain, kSeed);
  ASSERT_TRUE(dist_chain.ok()) << dist_chain.status();
  StatusOr<query::QueryId> local_chain = engine.AddChainJoinQuery(chain, kSeed);
  ASSERT_TRUE(local_chain.ok()) << local_chain.status();

  // Everything between start and stop lands in one merged fleet trace.
  ASSERT_TRUE(coordinator.SetFleetTracing(true).ok());

  const auto f_updates = Workload(7, 600);
  ASSERT_TRUE(coordinator.UpdateBatch("f", f_updates).ok());
  ASSERT_TRUE(engine.UpdateBatch("f", f_updates).ok());
  Rng rng(13);
  for (int i = 0; i < 60; ++i) {
    const uint64_t x = rng.NextUint64Below(64);
    const uint64_t y = rng.NextUint64Below(64);
    ASSERT_TRUE(coordinator.UpdateRelation("a", {x}, 1).ok());
    ASSERT_TRUE(engine.UpdateRelation("a", {x}, 1).ok());
    ASSERT_TRUE(coordinator.UpdateRelation("b", {x, y}, 1).ok());
    ASSERT_TRUE(engine.UpdateRelation("b", {x, y}, 1).ok());
    ASSERT_TRUE(coordinator.UpdateRelation("c", {y}, 1).ok());
    ASSERT_TRUE(engine.UpdateRelation("c", {y}, 1).ok());
  }
  StatusOr<double> dist_answer = coordinator.AnswerChainJoin(*dist_chain);
  StatusOr<double> local_answer = engine.AnswerChainJoin(*local_chain);
  ASSERT_TRUE(dist_answer.ok()) << dist_answer.status();
  ASSERT_TRUE(local_answer.ok()) << local_answer.status();
  EXPECT_EQ(*local_answer, *dist_answer);  // bit-identical through the fleet

  ASSERT_TRUE(coordinator.SetFleetTracing(false).ok());
  StatusOr<std::string> trace = coordinator.DumpFleetTrace();
  ASSERT_TRUE(trace.ok()) << trace.status();

  // One merged timeline: three named process tracks...
  EXPECT_NE(trace->find("process_name"), std::string::npos);
  const std::vector<std::string> events = TraceEventObjects(*trace);
  std::map<std::string, std::set<std::string>> pids_by_trace;
  std::set<std::string> worker_pids;
  std::set<std::string> all_pids;
  for (const std::string& event : events) {
    const std::string pid = JsonField(event, "pid");
    if (pid.empty()) continue;
    all_pids.insert(pid);
    const std::string trace_id = JsonField(event, "trace_id");
    if (!trace_id.empty() && trace_id != "0") {
      pids_by_trace[trace_id].insert(pid);
    }
    if (JsonField(event, "name").rfind("worker.", 0) == 0) {
      worker_pids.insert(pid);
    }
  }
  EXPECT_GE(all_pids.size(), 3u);     // coordinator + both workers
  EXPECT_GE(worker_pids.size(), 2u);  // both shards produced spans
  // The acceptance bar: one trace_id spanning the coordinator AND >= 2
  // worker processes (an UpdateBatch root and its remote ingest children).
  bool fan_out_trace = false;
  for (const auto& [trace_id, pids] : pids_by_trace) {
    if (pids.size() >= 3) fan_out_trace = true;
  }
  EXPECT_TRUE(fan_out_trace)
      << "no trace_id crossed 3+ processes in:\n" << *trace;

  // ...and the merged metrics: the per-shard ingest series carry shard
  // labels and sum to the single-process engine's count exactly.
  StatusOr<metrics::Snapshot> fleet = coordinator.FleetMetricsSnapshot();
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  uint64_t fleet_absorbed = 0;
  std::set<std::string> shards_seen;
  for (const auto& [name, value] : fleet->counters) {
    std::string base, shard;
    if (metrics::SplitShardLabel(name, &base, &shard) &&
        base == "ingest.f.elements_absorbed") {
      fleet_absorbed += value;
      shards_seen.insert(shard);
    }
  }
  uint64_t local_absorbed = 0;
  for (const auto& [name, value] : engine.MetricsSnapshot().counters) {
    if (name == "ingest.f.elements_absorbed") local_absorbed = value;
  }
  EXPECT_EQ(local_absorbed, 600u);
  EXPECT_EQ(fleet_absorbed, local_absorbed);
  EXPECT_EQ(shards_seen.size(), 2u) << "every shard must report its series";
  const std::string prom = metrics::ToPrometheusText(*fleet);
  EXPECT_NE(prom.find("ingest_f_elements_absorbed{shard=\"0\"}"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("ingest_f_elements_absorbed{shard=\"1\"}"),
            std::string::npos)
      << prom;
}

TEST(DistIntegrationTest, KilledWorkerDegradesThenRestartRecoversExactly) {
  const std::string dir = ::testing::TempDir();
  WorkerProcess w0(dir + "/int_kill_0.sock", "s0",
                   FreshPath(dir + "/int_kill_0.ckpt"), 1);
  WorkerProcess w1(dir + "/int_kill_1.sock", "s1",
                   FreshPath(dir + "/int_kill_1.ckpt"), 1);
  ASSERT_NO_FATAL_FAILURE(w0.Start());
  ASSERT_NO_FATAL_FAILURE(w1.Start());

  CoordinatorOptions options = FastOptions();
  options.rpc_timeout = milliseconds(500);
  Coordinator coordinator(
      {{"s0", w0.socket_path()}, {"s1", w1.socket_path()}}, options);
  query::Engine engine;
  for (const auto& stream : {query::StreamSpec{"f", 1u << 12},
                             query::StreamSpec{"g", 1u << 12}}) {
    ASSERT_TRUE(coordinator.RegisterStream(stream).ok());
    ASSERT_TRUE(engine.RegisterStream(stream).ok());
  }
  const uint64_t kSeed = 41;
  StatusOr<query::QueryId> dist_join =
      coordinator.AddJoinQuery(SkimmedJoinSpec(), kSeed);
  ASSERT_TRUE(dist_join.ok()) << dist_join.status();
  StatusOr<query::QueryId> local_join =
      engine.AddJoinQuery(SkimmedJoinSpec(), kSeed);
  ASSERT_TRUE(local_join.ok()) << local_join.status();

  // Ingest with checkpoint_every=1: every acked batch is durable.
  const auto f_updates = Workload(1, 400);
  const auto g_updates = Workload(2, 400);
  ASSERT_TRUE(coordinator.UpdateBatch("f", f_updates).ok());
  ASSERT_TRUE(coordinator.UpdateBatch("g", g_updates).ok());
  ASSERT_TRUE(engine.UpdateBatch("f", f_updates).ok());
  ASSERT_TRUE(engine.UpdateBatch("g", g_updates).ok());

  StatusOr<EstimateReport> healthy =
      coordinator.AnswerJoinWithReport(*dist_join);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  ASSERT_FALSE(healthy->partial);

  // SIGKILL s0: answers must keep flowing (stale cache) but flag the shard.
  w0.Kill();
  StatusOr<EstimateReport> degraded =
      coordinator.AnswerJoinWithReport(*dist_join);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->partial);
  bool s0_flagged = false;
  for (const ShardContribution& shard : degraded->shards) {
    if (shard.shard == "s0" && !shard.fresh) s0_flagged = true;
  }
  EXPECT_TRUE(s0_flagged);

  // Restart from the checkpoint: every acked batch was durable, so the
  // re-adopted fleet answers bit-identically to the local engine again.
  ASSERT_NO_FATAL_FAILURE(w0.Start());
  StatusOr<EstimateReport> recovered =
      coordinator.AnswerJoinWithReport(*dist_join);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(recovered->partial) << "s0 should be fresh after re-adoption";
  EXPECT_EQ(healthy->estimate, recovered->estimate);

  // No double-merge: asking again (another pull + merge) must not inflate.
  StatusOr<double> again = coordinator.AnswerJoin(*dist_join);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(healthy->estimate, *again);

  // And the fleet keeps tracking new arrivals exactly.
  const auto more = Workload(3, 200);
  ASSERT_TRUE(coordinator.UpdateBatch("f", more).ok());
  ASSERT_TRUE(engine.UpdateBatch("f", more).ok());
  StatusOr<double> moved_dist = coordinator.AnswerJoin(*dist_join);
  StatusOr<double> moved_local = engine.AnswerJoin(*local_join);
  ASSERT_TRUE(moved_dist.ok()) << moved_dist.status();
  ASSERT_TRUE(moved_local.ok()) << moved_local.status();
  EXPECT_EQ(*moved_local, *moved_dist);
}

// A worker without a checkpoint comes back empty. Its fresh incarnation
// tells the coordinator to replay every registration, so the next update
// lands instead of failing with an unknown stream, and the shard answers
// for everything it ingested since.
TEST(DistIntegrationTest, WorkerWithoutCheckpointIsReadoptedAfterRestart) {
  const std::string dir = ::testing::TempDir();
  WorkerProcess w0(dir + "/int_empty_0.sock", "s0", "", 0);
  ASSERT_NO_FATAL_FAILURE(w0.Start());
  Coordinator coordinator({{"s0", w0.socket_path()}}, FastOptions());
  query::Engine engine;
  ASSERT_TRUE(coordinator.RegisterStream({"f", 1u << 12}).ok());
  ASSERT_TRUE(engine.RegisterStream({"f", 1u << 12}).ok());
  query::FrequencyQuerySpec frequency;
  frequency.stream = "f";
  frequency.space_counters = 512;
  StatusOr<query::QueryId> dist_freq =
      coordinator.AddFrequencyQuery(frequency, 12);
  ASSERT_TRUE(dist_freq.ok()) << dist_freq.status();
  StatusOr<query::QueryId> local_freq = engine.AddFrequencyQuery(frequency, 12);
  ASSERT_TRUE(local_freq.ok()) << local_freq.status();
  ASSERT_TRUE(coordinator.UpdateBatch("f", Workload(1, 200)).ok());
  const uint64_t incarnation = coordinator.ShardStatuses()[0].incarnation;

  w0.Kill();
  ASSERT_NO_FATAL_FAILURE(w0.Start());
  const auto updates = Workload(2, 200);
  ASSERT_TRUE(coordinator.UpdateBatch("f", updates).ok());
  ASSERT_TRUE(engine.UpdateBatch("f", updates).ok());
  EXPECT_NE(coordinator.ShardStatuses()[0].incarnation, incarnation);
  for (const uint64_t value : {updates[0].value, updates[1].value}) {
    StatusOr<int64_t> dist_point =
        coordinator.AnswerPointFrequency(*dist_freq, value);
    ASSERT_TRUE(dist_point.ok()) << dist_point.status();
    EXPECT_EQ(*dist_point, *engine.AnswerPointFrequency(*local_freq, value));
  }
}

TEST(DistIntegrationTest, SeededKillRestartChaosNeverWedgesTheCoordinator) {
  const uint64_t seed = ChaosSeed();
  // Printed unconditionally so a failing CI run is reproducible with
  // SKIMJOIN_CHAOS_SEED=<seed>.
  std::cout << "[ chaos ] SKIMJOIN_CHAOS_SEED=" << seed << std::endl;
  SCOPED_TRACE("SKIMJOIN_CHAOS_SEED=" + std::to_string(seed));
  Rng chaos(seed);

  const std::string dir = ::testing::TempDir();
  std::vector<std::unique_ptr<WorkerProcess>> workers;
  std::vector<ShardAddress> addresses;
  for (int i = 0; i < 2; ++i) {
    const std::string tag = "chaos_" + std::to_string(i);
    workers.push_back(std::make_unique<WorkerProcess>(
        dir + "/int_" + tag + ".sock", "s" + std::to_string(i),
        FreshPath(dir + "/int_" + tag + ".ckpt"), 1));
    ASSERT_NO_FATAL_FAILURE(workers.back()->Start());
    addresses.push_back({workers.back()->shard_name(),
                         workers.back()->socket_path()});
  }

  CoordinatorOptions options = FastOptions();
  options.rpc_timeout = milliseconds(300);
  options.rpc_attempts = 2;
  options.jitter_seed = seed;
  Coordinator coordinator(addresses, options);
  ASSERT_TRUE(coordinator.RegisterStream({"f", 1u << 12}).ok());
  ASSERT_TRUE(coordinator.RegisterStream({"g", 1u << 12}).ok());
  StatusOr<query::QueryId> join =
      coordinator.AddJoinQuery(SkimmedJoinSpec(), 5);
  ASSERT_TRUE(join.ok()) << join.status();
  ASSERT_TRUE(coordinator.UpdateBatch("f", Workload(10, 200)).ok());
  ASSERT_TRUE(coordinator.UpdateBatch("g", Workload(11, 200)).ok());
  ASSERT_TRUE(coordinator.AnswerJoin(*join).ok());

  // The per-answer envelope: every shard can burn its full retry budget
  // on both the pull and an eventual reconnect, plus scheduling slack.
  const auto kAnswerBound = milliseconds(
      2 * options.rpc_attempts * 2 * options.rpc_timeout.count() + 4000);

  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const uint64_t action = chaos.NextUint64Below(3);
    const size_t victim = chaos.NextUint64Below(workers.size());
    if (action == 0 && workers[victim]->running()) {
      workers[victim]->Kill();
    } else if (action == 1 && !workers[victim]->running()) {
      ASSERT_NO_FATAL_FAILURE(workers[victim]->Start());
    } else {
      // Ingest traffic; with dead shards this reports an error but must
      // not hang or crash, and surviving shards still apply their slice.
      (void)coordinator.UpdateBatch("f", Workload(100 + round, 50));
    }

    const auto start = steady_clock::now();
    StatusOr<EstimateReport> report =
        coordinator.AnswerJoinWithReport(*join);
    const auto elapsed = steady_clock::now() - start;
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_LT(elapsed, kAnswerBound);
    bool any_down_or_stale = false;
    for (const ShardContribution& shard : report->shards) {
      if (!shard.fresh || shard.health != "healthy") any_down_or_stale = true;
    }
    if (report->partial) {
      EXPECT_TRUE(any_down_or_stale)
          << "partial answers must name a stale or unhealthy shard";
    }
  }

  // Convergence: revive everyone; the fleet must settle back to healthy,
  // non-partial answers.
  for (auto& worker : workers) {
    if (!worker->running()) {
      ASSERT_NO_FATAL_FAILURE(worker->Start());
    }
  }
  StatusOr<EstimateReport> settled = coordinator.AnswerJoinWithReport(*join);
  ASSERT_TRUE(settled.ok()) << settled.status();
  EXPECT_FALSE(settled->partial);
}

}  // namespace
}  // namespace dist
}  // namespace skimjoin

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc > 1) skimjoin::dist::g_cli_path = argv[1];
  if (skimjoin::dist::g_cli_path.empty()) {
    std::cerr << "usage: dist_integration_test <path-to-skimjoin_cli>\n";
    return 2;
  }
  return RUN_ALL_TESTS();
}
