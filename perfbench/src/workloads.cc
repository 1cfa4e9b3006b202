// The four closed-loop workloads. Each is driven by one thread; inputs are
// generated from --seed before set-up and only the generated updates reach
// the library. With tracing on, even rounds are traced and odd rounds are
// not (their difference is the tracing overhead), and every input is
// replayed through each layer's public functions on standalone synopses
// that must match the engine's byte for byte. The join and fleet replays
// run right after each engine or coordinator call, so both are timed
// under the same machine conditions; concurrent_point replays after its
// loop, so the replay's threads never compete with the engine's workers.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/join_estimators.h"
#include "core/skimmed_sketch.h"
#include "dist/frame.h"
#include "dist/protocol.h"
#include "hashing/kwise_hash.h"
#include "hashing/sign_hash.h"
#include "hashing/simd_hash.h"
#include "ingest/concurrent_ingestor.h"
#include "query/engine.h"
#include "replay.h"
#include "sketch/hash_sketch.h"
#include "sketch/sketch_seed.h"
#include "sketch/slim_view.h"
#include "util/random.h"
#include "util/stream_profiler.h"

namespace perfbench {
namespace {

using skimjoin::EstimateReport;
using skimjoin::StatusOr;
using skimjoin::core::SkimmedSketch;
using skimjoin::query::Engine;
using skimjoin::query::QueryId;
using skimjoin::stream::FrequencyVector;
namespace core = skimjoin::core;
namespace query = skimjoin::query;

// Query seeds are fixed workload configuration, like the query shapes;
// only the stream contents depend on --seed.
constexpr uint64_t kJoinSeed = 11;
constexpr uint64_t kRangeJoinSeed = 12;
constexpr uint64_t kSelfJoinSeed = 13;
constexpr uint64_t kFrequencySeed = 21;

// Untraced runs time set-up at least kSetupMinReps times and for at least
// kSetupMinSeconds (at most kSetupMaxReps times), so ms-scale set-ups are
// timed hundreds of times; setup_s is the median. Only the first set-up
// runs before the measured loop; the others run after it, so their number,
// which depends on the host's speed, cannot change the heap the loop runs
// on. Traced runs set up once: setup_s is not a layer row.
constexpr int kSetupMinReps = 7;
constexpr double kSetupMinSeconds = 1.0;
constexpr int kSetupMaxReps = 2000;

// Layer rows may exceed the end-to-end span they decompose by at most this
// share: the replays run on standalone synopses whose cache state differs
// from the engine's, so a small excess is timing noise, a large one means
// the ledger double-counts.
constexpr double kLedgerTolerance = 0.20;

constexpr size_t kHotValues = 64;

std::vector<uint64_t> HotValues() {
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < kHotValues; ++v) values.push_back(v);
  return values;
}

core::EstimatorSpec SkimmedSpec() {
  core::EstimatorSpec spec;
  spec.kind = core::EstimatorKind::kSkimmedSketch;
  spec.space_counters = 4096;
  return spec;
}

/// Adds set-up repetitions to *seconds (none when tracing) and reports
/// setup_s as their median. Each repetition is torn down untimed.
template <typename Fn>
void RepeatSetup(const Options& options, Fn& setup,
                 std::vector<double>* seconds, const std::string& what,
                 Report* report) {
  double total = 0;
  for (const double s : *seconds) total += s;
  while (!options.trace && static_cast<int>(seconds->size()) < kSetupMaxReps &&
         (static_cast<int>(seconds->size()) < kSetupMinReps ||
          total < kSetupMinSeconds)) {
    (void)TimedSetup(setup, seconds);
    total += seconds->back();
  }
  report->Metric("setup_s", Median(*seconds), "s",
                 "median of " + std::to_string(seconds->size()) + " " + what +
                     ", the first before the run and the rest after it");
}

/// Reports answer_p50_us and answer_tail_us from latencies in ns.
void AnswerLatency(const std::vector<double>& latencies_ns,
                   const std::string& call, Report* report) {
  const Tail tail = TailOf(latencies_ns);
  report->Metric("answer_p50_us", Median(latencies_ns) / 1e3, "us",
                 call + ", n=" + std::to_string(latencies_ns.size()));
  char note[96];
  std::snprintf(note, sizeof(note), "p%.2f of %zu samples, %zu beyond",
                tail.percentile, tail.samples, tail.beyond);
  report->Metric("answer_tail_us", tail.value / 1e3, "us", note);
}

/// Reports ingest_meps as the median over windows of consecutive ingest
/// calls of elements / time inside the calls. Windows keep a burst of host
/// interference to the few windows it hits; over 10 seeds on a shared
/// 4-vCPU VM the median's IQR/median was 0.09-0.19 against 0.11-0.31 for
/// the 10th percentile, whose value on concurrent_point (8 windows of a
/// whole flush round per run) is the single slowest round.
void IngestRate(const RateWindows& windows, const std::string& call,
                Report* report) {
  std::vector<double> rates = windows.Rates();
  std::sort(rates.begin(), rates.end());
  char range[64];
  std::snprintf(range, sizeof(range), "; p10 %.4g, p90 %.4g",
                rates.empty() ? 0.0 : rates[rates.size() / 10],
                rates.empty() ? 0.0 : rates[rates.size() * 9 / 10]);
  report->Metric("ingest_meps", Median(rates), "Melem/s",
                 call + "; median over " + std::to_string(rates.size()) +
                     " windows of " +
                     std::to_string(windows.calls_per_window()) + " calls" +
                     range);
}

/// Share of `span_ns` its children do not cover, after checking that the
/// children exceed it by no more than the ledger tolerance.
double Ledger(double span_ns, double children_ns, const std::string& what,
              Report* report) {
  report->Check(
      span_ns > 0 && children_ns <= span_ns * (1 + kLedgerTolerance),
      "ledger: " + what + " layer rows (" + std::to_string(children_ns) +
          " ns) within " + std::to_string(kLedgerTolerance) +
          " of the span (" + std::to_string(span_ns) + " ns)");
  return span_ns > 0 ? (span_ns - children_ns) / span_ns : 0.0;
}

/// Traced over untraced time per unit of work, minus one; index 1 holds
/// the traced rounds.
double OverheadRatio(const double wall[2], const double work[2]) {
  if (work[0] <= 0 || work[1] <= 0) return 0.0;
  return (wall[1] / work[1]) / (wall[0] / work[0]) - 1.0;
}

void FinishCommon(Report* report, double ratio_errors_sum, size_t answers) {
  report->Metric("ratio_error",
                 answers > 0 ? ratio_errors_sum / static_cast<double>(answers)
                             : 0.0,
                 "ratio",
                 "mean over " + std::to_string(answers) +
                     " final answers, cap 10");
  report->Metric("peak_rss_mib", PeakRssMiB(), "MiB", "ru_maxrss");
}

/// CountSketch envelope for a point answer: four standard deviations of
/// one table's estimate, sqrt(F2 / b), which the median of the tables
/// stays inside with overwhelming probability.
double PointEnvelope(const FrequencyVector& reference, uint64_t buckets) {
  return 4.0 * std::sqrt(static_cast<double>(reference.SelfJoinSize()) /
                         static_cast<double>(buckets));
}

/// Checks a final point answer against the exact frequency and adds its
/// ratio error to *ratio_sum.
void CheckPoint(const StatusOr<int64_t>& answer, uint64_t value,
                const FrequencyVector& reference, double envelope,
                Report* report, double* ratio_sum) {
  const double exact = static_cast<double>(reference.Get(value));
  const bool ok = answer.ok();
  report->Check(
      ok && std::abs(static_cast<double>(*answer) - exact) <= envelope,
      "point answer for " + std::to_string(value) + " within " +
          std::to_string(envelope) + " of exact " + std::to_string(exact));
  if (ok) *ratio_sum += RatioError(static_cast<double>(*answer), exact);
}

/// Checks a final join answer against the exact join and adds its ratio
/// error to *ratio_sum.
void CheckJoin(const EstimateReport& answer, double exact,
               const std::string& name, Report* report, double* ratio_sum) {
  report->Check(std::abs(answer.estimate - exact) <= answer.apriori_bound,
                name + " estimate " + std::to_string(answer.estimate) +
                    " within apriori_bound " +
                    std::to_string(answer.apriori_bound) + " of exact " +
                    std::to_string(exact));
  *ratio_sum += RatioError(answer.estimate, exact);
}

// --- Engine join workloads (join_ingest, join_answer) ----------------------

struct JoinShape {
  uint64_t domain;
  double z;
  uint64_t shift;
  double delete_ratio;
  uint64_t pool;          // generated updates per stream
  uint64_t preload;       // leading updates per stream ingested in set-up
  uint64_t batch;
  uint64_t answer_every;  // elements between answers; 0 = every round
  bool both_streams_per_round;
  bool three_queries;
};

struct JoinQueryDef {
  std::string name;
  query::JoinQuerySpec spec;
  uint64_t seed;
};

std::vector<JoinQueryDef> JoinQueries(const JoinShape& shape) {
  std::vector<JoinQueryDef> defs;
  query::JoinQuerySpec join;
  join.left_stream = "f";
  join.right_stream = "g";
  join.estimator = SkimmedSpec();
  defs.push_back({"f_join_g", join, kJoinSeed});
  if (shape.three_queries) {
    query::JoinQuerySpec range = join;
    range.left_predicate = query::RangePredicate{0, shape.domain / 2 - 1};
    defs.push_back({"f_join_g_range", range, kRangeJoinSeed});
    query::JoinQuerySpec self = join;
    self.right_stream = "f";
    defs.push_back({"f_self_join", self, kSelfJoinSeed});
  }
  return defs;
}

struct JoinEngine {
  std::unique_ptr<Engine> engine;
  std::vector<QueryId> ids;
};

double ExactJoin(const JoinQueryDef& def, const FrequencyVector& f,
                 const FrequencyVector& g) {
  const FrequencyVector& right = def.spec.right_stream == "f" ? f : g;
  double total = 0;
  for (uint64_t v = 0; v < f.domain_size(); ++v) {
    if (def.spec.left_predicate && !def.spec.left_predicate->Matches(v)) {
      continue;
    }
    total += static_cast<double>(f.Get(v)) * static_cast<double>(right.Get(v));
  }
  return total;
}

/// The traced run's standalone copy of the engine's join queries: one
/// JoinEstimatorPair per query, built from the same spec and seed, one
/// profiler per stream, and a copy of the first query's f-side level-0
/// HashSketch for the scalar sketch and hashing rows. Every batch the
/// engine ingests is replayed right after the engine call, so engine spans
/// and layer rows are timed under the same machine conditions.
class JoinReplay {
 public:
  JoinReplay(const std::vector<JoinQueryDef>& defs, uint64_t domain,
             Report* report)
      : defs_(defs) {
    for (const JoinQueryDef& def : defs) {
      core::EstimatorSpec spec = def.spec.estimator;
      spec.domain_size = domain;
      StatusOr<std::unique_ptr<core::JoinEstimatorPair>> pair =
          core::CreateJoinEstimatorPair(spec, def.seed);
      report->Op(pair.status(), "CreateJoinEstimatorPair");
      if (!pair.ok()) return;
      pairs_.push_back(*std::move(pair));
    }
    std::ostringstream text;
    report->Op(pairs_[0]->SerializeTo(text), "JoinEstimatorPair::SerializeTo");
    StatusOr<SkimmedSides> sides = ParseSkimmedPair(text.str());
    report->Op(sides.status(), "SkimmedSketch::DeserializeFrom");
    if (sides.ok()) level0_.emplace(sides->f.level0());
  }

  bool ok() const { return level0_.has_value(); }

  /// Replays one batch of `stream` (0 = f, 1 = g): the profiler, then every
  /// pair as Engine::ApplyToQueries routes it (predicate first, then
  /// UpdateF / UpdateG per subscribed side). The f batches also go through
  /// HashSketch::Update and the sketch's bucket and sign hashes, which are
  /// layers inside the pair update rather than beside it. Spans go to
  /// `spans` if set.
  void Update(int stream, std::span<const StreamUpdate> batch,
              Tracer* spans) {
    {
      Scoped span(spans, "util.profiler", batch.size());
      for (const StreamUpdate& u : batch) {
        profilers_[stream].ObserveValue(u.value, u.count);
      }
    }
    {
      Scoped span(spans, "core.pair_update", batch.size());
      const std::string name = stream == 0 ? "f" : "g";
      for (size_t i = 0; i < defs_.size(); ++i) {
        const query::JoinQuerySpec& spec = defs_[i].spec;
        core::JoinEstimatorPair& pair = *pairs_[i];
        const bool left = spec.left_stream == name;
        const bool right = spec.right_stream == name;
        for (const StreamUpdate& u : batch) {
          if (u.count == 0) continue;
          if (left && (!spec.left_predicate ||
                       spec.left_predicate->Matches(u.value))) {
            pair.UpdateF(u.value, u.count);
          }
          if (right && (!spec.right_predicate ||
                        spec.right_predicate->Matches(u.value))) {
            pair.UpdateG(u.value, u.count);
          }
        }
      }
    }
    if (stream != 0) return;
    {
      Scoped span(spans, "sketch.scalar_update", batch.size());
      for (const StreamUpdate& u : batch) {
        if (u.count != 0) level0_->Update(u.value, u.count);
      }
    }
    const uint64_t tables = level0_->config().num_tables;
    Scoped span(spans, "hashing.scalar_hash", batch.size() * tables);
    uint64_t sink = 0;
    for (const StreamUpdate& u : batch) {
      for (uint64_t t = 0; t < tables; ++t) {
        sink += level0_->Bucket(t, u.value) ^
                static_cast<uint64_t>(level0_->Sign(t, u.value));
      }
    }
    KeepAlive(sink);
  }

  /// Times skim + subjoin of query `q` and checks the estimate against the
  /// engine's answer bit for bit.
  void Answer(size_t q, const StatusOr<double>& engine_answer,
              Tracer* tracer) {
    const StatusOr<double> estimate =
        TimedSkimJoin(*pairs_[q], tracer, &skims_);
    answers_match_ = answers_match_ && estimate.ok() && engine_answer.ok() &&
                     *estimate == *engine_answer;
  }

  const core::JoinEstimatorPair& pair(size_t q) const { return *pairs_[q]; }
  const skimjoin::sketch::HashSketch& level0() const { return *level0_; }
  bool answers_match() const { return answers_match_; }
  const SkimCounts& skims() const { return skims_; }

 private:
  const std::vector<JoinQueryDef>& defs_;
  std::vector<std::unique_ptr<core::JoinEstimatorPair>> pairs_;
  std::optional<skimjoin::sketch::HashSketch> level0_;
  skimjoin::util::StreamProfiler profilers_[2];
  SkimCounts skims_;
  bool answers_match_ = true;
};

void RunEngineJoin(const JoinShape& shape, const Options& options,
                   Report* report, Tracer* tracer) {
  report->Context("threads", "1");
  const std::vector<StreamUpdate> pool_f =
      GenerateStream(shape.domain, shape.z, 0, shape.pool, shape.delete_ratio,
                     options.seed * 2 + 1);
  const std::vector<StreamUpdate> pool_g =
      GenerateStream(shape.domain, shape.z, shape.shift, shape.pool,
                     shape.delete_ratio, options.seed * 2 + 2);
  const std::vector<JoinQueryDef> defs = JoinQueries(shape);
  const std::span<const StreamUpdate> preload_f(pool_f.data(), shape.preload);
  const std::span<const StreamUpdate> preload_g(pool_g.data(), shape.preload);

  auto setup = [&]() {
    JoinEngine made;
    made.engine = std::make_unique<Engine>();
    Engine& e = *made.engine;
    report->Op(e.RegisterStream({"f", shape.domain}).status(),
               "Engine::RegisterStream");
    report->Op(e.RegisterStream({"g", shape.domain}).status(),
               "Engine::RegisterStream");
    for (const JoinQueryDef& def : defs) {
      StatusOr<QueryId> id = e.AddJoinQuery(def.spec, def.seed);
      report->Op(id.status(), "Engine::AddJoinQuery");
      made.ids.push_back(id.ok() ? *id : 0);
    }
    for (uint64_t at = 0; at < shape.preload; at += shape.batch) {
      report->Op(e.UpdateBatch("f", preload_f.subspan(at, shape.batch)),
                 "Engine::UpdateBatch");
      report->Op(e.UpdateBatch("g", preload_g.subspan(at, shape.batch)),
                 "Engine::UpdateBatch");
    }
    return made;
  };
  std::vector<double> setup_seconds;
  JoinEngine state = TimedSetup(setup, &setup_seconds);
  Engine& engine = *state.engine;

  FrequencyVector ref_f(shape.domain);
  FrequencyVector ref_g(shape.domain);
  ApplyTo(&ref_f, preload_f);
  ApplyTo(&ref_g, preload_g);
  BatchCycle cycle_f(&pool_f, shape.batch, shape.preload);
  BatchCycle cycle_g(&pool_g, shape.batch, shape.preload);

  std::optional<JoinReplay> replay;
  if (tracer != nullptr) {
    replay.emplace(defs, shape.domain, report);
    report->Check(replay->ok(), "standalone join replay built");
    if (!replay->ok()) return;
    replay->Update(0, preload_f, nullptr);
    replay->Update(1, preload_g, nullptr);
  }
  std::vector<double> answer_ns;
  const bool answer_is_main = shape.answer_every == 0;
  RateWindows ingest_rate(answer_is_main ? 8 : 64);
  double wall[2] = {0, 0};
  double work[2] = {0, 0};
  uint64_t since_answer = 0;
  size_t answers = 0;
  std::optional<CpuRotation> rotation(std::in_place);
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (uint64_t round = 0; NowNs() < deadline; ++round) {
    rotation->Tick();
    const bool traced = tracer != nullptr && round % 2 == 0;
    Tracer* spans = traced ? tracer : nullptr;
    for (int stream = 0; stream < 2; ++stream) {
      if (!shape.both_streams_per_round &&
          stream != static_cast<int>(round % 2)) {
        continue;
      }
      const std::span<const StreamUpdate> batch =
          stream == 0 ? cycle_f.Next() : cycle_g.Next();
      const int64_t t0 = NowNs();
      const Status status =
          Traced(spans, "query.update_batch", batch.size(), [&] {
            return engine.UpdateBatch(stream == 0 ? "f" : "g", batch);
          });
      const double ns = static_cast<double>(NowNs() - t0);
      report->Op(status, "Engine::UpdateBatch");
      ingest_rate.Add(static_cast<double>(batch.size()), ns);
      if (!answer_is_main) {
        wall[traced] += ns;
        work[traced] += static_cast<double>(batch.size());
      }
      ApplyTo(stream == 0 ? &ref_f : &ref_g, batch);
      since_answer += batch.size();
      if (replay) replay->Update(stream, batch, spans);
    }
    if (!answer_is_main && since_answer < shape.answer_every) continue;
    since_answer = 0;
    // Answers alternate traced/untraced on their own count, so a period
    // that divides the round count evenly still traces half of them.
    const bool answer_traced = tracer != nullptr && answers % 2 == 0;
    const size_t q = answers++ % defs.size();
    const int64_t t0 = NowNs();
    const StatusOr<double> answer =
        Traced(answer_traced ? tracer : nullptr, "query.answer_join", 1,
               [&] { return engine.AnswerJoin(state.ids[q]); });
    const double ns = static_cast<double>(NowNs() - t0);
    report->Op(answer.status(), "Engine::AnswerJoin");
    answer_ns.push_back(ns);
    if (answer_is_main) {
      wall[answer_traced] += ns;
      work[answer_traced] += 1;
    }
    if (answer_traced) replay->Answer(q, answer, tracer);
  }
  rotation.reset();

  IngestRate(ingest_rate,
             "Engine::UpdateBatch, " + std::to_string(shape.batch) +
                 "-element batches",
             report);
  AnswerLatency(answer_ns, "Engine::AnswerJoin", report);
  report->Metric("synopsis_kib", SynopsisKiB(engine), "KiB",
                 "sum of query.<id>.memory_bytes");
  report->Metric("read_lag_p50", 0, "elements",
                 "inline ingest: always visible");

  double ratio_sum = 0;
  for (size_t i = 0; i < defs.size(); ++i) {
    StatusOr<EstimateReport> answer =
        engine.AnswerJoinWithReport(state.ids[i]);
    report->Op(answer.status(), "Engine::AnswerJoinWithReport");
    if (!answer.ok()) continue;
    CheckJoin(*answer, ExactJoin(defs[i], ref_f, ref_g), defs[i].name, report,
              &ratio_sum);
  }
  FinishCommon(report, ratio_sum, defs.size());
  RepeatSetup(options, setup, &setup_seconds, "set-ups", report);
  if (tracer == nullptr) return;

  // --- Traced run: fidelity of the replay, then the layer rows. ---------
  report->Check(replay->answers_match(),
                "skim + subjoin replay equals every traced "
                "Engine::AnswerJoin bit for bit");
  for (size_t i = 0; i < defs.size(); ++i) {
    std::string engine_text;
    report->Op(engine.SerializeQuerySynopsis(state.ids[i], &engine_text),
               "Engine::SerializeQuerySynopsis");
    std::ostringstream replay_text;
    report->Op(replay->pair(i).SerializeTo(replay_text),
               "JoinEstimatorPair::SerializeTo");
    report->Check(engine_text == replay_text.str(),
                  "replayed " + defs[i].name + " pair serializes "
                  "byte-identical to the engine's");
    if (i != 0) continue;
    StatusOr<SkimmedSides> sides = ParseSkimmedPair(engine_text);
    report->Op(sides.status(), "SkimmedSketch::DeserializeFrom");
    std::ostringstream engine_level0;
    std::ostringstream replay_level0;
    report->Check(
        sides.ok() && sides->f.level0().SerializeTo(engine_level0).ok() &&
            replay->level0().SerializeTo(replay_level0).ok() &&
            engine_level0.str() == replay_level0.str(),
        "replayed HashSketch serializes byte-identical to the level-0 "
        "sketch of the engine's " + defs[i].name + " f side");
  }

  const Tracer::Totals update = tracer->Sum("query.update_batch");
  const Tracer::Totals profiler = tracer->Sum("util.profiler");
  const Tracer::Totals pair = tracer->Sum("core.pair_update");
  const Tracer::Totals answer = tracer->Sum("query.answer_join");
  const Tracer::Totals skim = tracer->Sum("core.skim");
  const Tracer::Totals subjoin = tracer->Sum("core.subjoin");
  const double ingest_ratio = Ledger(update.ns, profiler.ns + pair.ns,
                                     "Engine::UpdateBatch", report);
  const double answer_ratio = Ledger(answer.ns, skim.ns + subjoin.ns,
                                     "Engine::AnswerJoin", report);
  report->Metric(
      "query.ingest_self_ns_per_elem",
      (update.ns - profiler.ns - pair.ns) / std::max(1.0, update.work), "ns",
      "Engine::UpdateBatch minus util and core replays");
  report->Metric(
      "query.answer_self_us",
      PerCall(answer, 1e3) -
          (skim.ns + subjoin.ns) /
              std::max(1.0, static_cast<double>(answer.count)) / 1e3,
      "us", "Engine::AnswerJoin minus 2 x core.skim and core.subjoin");
  report->Metric("util.profiler_ns_per_elem",
                 PerWork(*tracer, "util.profiler", 1), "ns",
                 "StreamProfiler::ObserveValue");
  report->Metric("core.pair_update_ns_per_elem",
                 PerWork(*tracer, "core.pair_update", 1), "ns",
                 "JoinEstimatorPair::UpdateF/UpdateG of all " +
                     std::to_string(defs.size()) +
                     " pairs, per stream element");
  report->Metric("core.skim_us", PerCall(skim, 1e3), "us",
                 "SkimmedSketch::Skim per side");
  report->Metric("core.subjoin_us", PerCall(subjoin, 1e3), "us",
                 "SkimmedSketch::EstimateJoinSizeFromSkims");
  const SkimCounts& skims = replay->skims();
  const double skim_count =
      static_cast<double>(std::max<uint64_t>(1, skims.skims));
  report->Metric("core.skim_scanned_values",
                 static_cast<double>(skims.scanned) / skim_count, "count",
                 skims.dyadic ? "dyadic search: dense values, a lower bound "
                                "(candidate count not public)"
                              : "values examined per skim: config().domain_size "
                                "of the naive scan, derived not counted");
  report->Metric("core.skim_dense_values",
                 static_cast<double>(skims.dense) / skim_count, "count",
                 "dense values extracted per skim");
  report->Metric("sketch.scalar_update_ns",
                 PerWork(*tracer, "sketch.scalar_update", 1), "ns",
                 "HashSketch::Update per f element on the f_join_g f-side "
                 "level-0 copy");
  report->Metric("hashing.scalar_hash_ns",
                 PerWork(*tracer, "hashing.scalar_hash", 1), "ns",
                 "BucketHash + SignHash of that sketch, per (value, table)");
  report->Metric(
      "ledger.unexplained_ratio", answer_is_main ? answer_ratio : ingest_ratio,
      "ratio",
      std::string("self share of ") +
          (answer_is_main ? "Engine::AnswerJoin; UpdateBatch "
                          : "Engine::UpdateBatch; AnswerJoin ") +
          std::to_string(answer_is_main ? ingest_ratio : answer_ratio));
  report->Metric("trace.overhead_ratio", OverheadRatio(wall, work), "ratio",
                 answer_is_main ? "traced vs untraced AnswerJoin"
                                : "traced vs untraced UpdateBatch per element");
}

// --- concurrent_point ------------------------------------------------------

struct ConcurrentEngine {
  std::unique_ptr<Engine> engine;
  QueryId id = 0;
};

struct PointOp {
  std::span<const StreamUpdate> batch;
  bool traced;
  bool flush_after;
};

/// The bucket and sign hash families of a level-0 HashSketch, rebuilt from
/// its seed as HashSketch does, so hashing::PolyEvalBlock is timed on the
/// synopsis's own polynomials at the dispatched SIMD level.
class LevelHashes {
 public:
  LevelHashes(const core::SkimmedSketchConfig& config, uint64_t seed)
      : level_(skimjoin::hashing::DetectSimdLevel()) {
    namespace sketch = skimjoin::sketch;
    for (uint64_t t = 0; t < config.num_tables; ++t) {
      skimjoin::Rng bucket_rng =
          sketch::FamilyRng(seed, sketch::FamilyTag::kHashSketchBucket, t);
      buckets_.emplace_back(config.num_buckets, &bucket_rng);
      skimjoin::Rng sign_rng =
          sketch::FamilyRng(seed, sketch::FamilyTag::kHashSketchSign, t);
      signs_.emplace_back(&sign_rng);
    }
  }

  skimjoin::hashing::SimdLevel level() const { return level_; }

  /// True when the vector-evaluated bucket and sign of every element equal
  /// `sketch`'s Bucket and Sign.
  bool Matches(const skimjoin::sketch::HashSketch& sketch,
               std::span<const skimjoin::stream::StreamElement> elements) {
    std::vector<uint64_t> values;
    for (const auto& e : elements) values.push_back(e.value);
    out_.resize(values.size());
    for (uint64_t t = 0; t < buckets_.size(); ++t) {
      Eval(buckets_[t].poly(), values);
      for (size_t i = 0; i < values.size(); ++i) {
        if (buckets_[t].ModReduce(out_[i]) != sketch.Bucket(t, values[i])) {
          return false;
        }
      }
      Eval(signs_[t].poly(), values);
      for (size_t i = 0; i < values.size(); ++i) {
        const int64_t sign = (out_[i] & 1) != 0 ? -1 : 1;
        if (sign != sketch.Sign(t, values[i])) return false;
      }
    }
    return !values.empty();
  }

  /// Evaluates every bucket and sign polynomial over `values` inside one
  /// "hashing.simd_hash" span whose work is values x tables.
  void Time(const std::vector<uint64_t>& values, Tracer* tracer) {
    out_.resize(values.size());
    uint64_t sink = 0;
    Scoped span(tracer, "hashing.simd_hash", values.size() * buckets_.size());
    for (uint64_t t = 0; t < buckets_.size(); ++t) {
      Eval(buckets_[t].poly(), values);
      sink += out_[values.size() / 2];
      Eval(signs_[t].poly(), values);
      sink += out_[values.size() / 3];
    }
    KeepAlive(sink);
  }

 private:
  void Eval(const skimjoin::hashing::KWiseHash& poly,
            const std::vector<uint64_t>& values) {
    skimjoin::hashing::PolyEvalBlock(poly.coefficients(), values.data(),
                                     values.size(), out_.data(), level_);
  }

  skimjoin::hashing::SimdLevel level_;
  std::vector<skimjoin::hashing::BucketHash> buckets_;
  std::vector<skimjoin::hashing::SignHash> signs_;
  std::vector<uint64_t> out_;
};

// --- fleet_refresh ---------------------------------------------------------

struct FleetState {
  std::unique_ptr<Fleet> fleet;
  QueryId join = 0;
  QueryId frequency = 0;
};

/// The traced run's standalone copy of the fleet's frequency query: one
/// SkimmedSketch per shard, fed the routed f elements, plus the wire codec
/// of every routed batch. Like JoinReplay it runs right after each
/// coordinator call, while the worker threads wait for the next RPC.
class FleetReplay {
 public:
  FleetReplay(const core::SkimmedSketchConfig& config, uint64_t seed,
              Report* report) {
    for (int k = 0; k < 2; ++k) {
      StatusOr<SkimmedSketch> shard = SkimmedSketch::Create(config, seed);
      report->Op(shard.status(), "SkimmedSketch::Create");
      if (shard.ok()) shards_.push_back(*std::move(shard));
    }
  }

  bool ok() const { return shards_.size() == 2; }

  /// Routes a batch as Coordinator::UpdateBatch does (value % shards),
  /// round-trips each routed part through the wire codec, and feeds the f
  /// parts to the shard sketches.
  void Update(int stream, std::span<const StreamUpdate> batch,
              Tracer* spans) {
    skimjoin::dist::UpdateBatchMsg routed[2];
    routed[0].stream = routed[1].stream = stream == 0 ? "f" : "g";
    for (const StreamUpdate& u : batch) {
      routed[u.value % 2].updates.push_back(u);
    }
    for (size_t k = 0; k < 2; ++k) {
      std::string frame;
      {
        Scoped span(spans, "dist.encode_update");
        frame = skimjoin::dist::EncodeFrame(
            static_cast<uint32_t>(skimjoin::dist::MessageType::kUpdateBatch),
            skimjoin::dist::EncodeUpdateBatch(routed[k]));
      }
      {
        Scoped span(spans, "dist.decode_update");
        size_t consumed = 0;
        auto decoded = skimjoin::dist::TryDecodeFrame(frame, &consumed);
        matches_ = matches_ && decoded.ok() && decoded->has_value() &&
                   skimjoin::dist::DecodeUpdateBatch((*decoded)->payload).ok();
      }
      if (stream == 0) shards_[k].UpdateBatch(ToElements(routed[k].updates));
    }
  }

  /// Times what a refresh does with the shard deltas: serialize, parse,
  /// merge, point estimate; the estimate must equal the coordinator's.
  void Refresh(uint64_t value, const StatusOr<int64_t>& answer,
               Tracer* tracer) {
    std::optional<SkimmedSketch> pieces[2];
    for (size_t k = 0; k < 2; ++k) {
      std::string text;
      {
        Scoped span(tracer, "sketch.serialize");
        text = SerializeSketch(shards_[k]);
      }
      std::istringstream in(text);
      Scoped span(tracer, "sketch.deserialize");
      StatusOr<SkimmedSketch> piece = SkimmedSketch::DeserializeFrom(in);
      if (piece.ok()) pieces[k].emplace(*std::move(piece));
    }
    if (!pieces[0] || !pieces[1]) {
      matches_ = false;
      return;
    }
    {
      Scoped span(tracer, "core.merge");
      pieces[0]->Merge(*pieces[1]);
    }
    Scoped span(tracer, "sketch.point_estimate");
    matches_ = matches_ && answer.ok() &&
               pieces[0]->EstimatePointFrequency(value) == *answer;
  }

  const SkimmedSketch& shard(size_t k) const { return shards_[k]; }
  bool matches() const { return matches_; }

 private:
  std::vector<SkimmedSketch> shards_;
  bool matches_ = true;
};

}  // namespace

void RunJoinIngest(const Options& options, Report* report, Tracer* tracer) {
  JoinShape shape;
  shape.domain = options.smoke ? 1u << 12 : 1u << 18;
  shape.z = 1.0;
  shape.shift = 100;
  shape.delete_ratio = 0.1;
  shape.pool = options.smoke ? 1u << 14 : 1u << 21;
  shape.preload = 0;
  shape.batch = options.smoke ? 1024 : 4096;
  shape.answer_every = options.smoke ? 1u << 13 : 1u << 20;
  shape.both_streams_per_round = true;
  shape.three_queries = true;
  RunEngineJoin(shape, options, report, tracer);
}

void RunJoinAnswer(const Options& options, Report* report, Tracer* tracer) {
  JoinShape shape;
  // Smoke runs keep the full domain: the answer must stay large next to the
  // replay's per-answer restore, or the ledger compares unlike caches.
  shape.domain = 1u << 16;
  shape.z = 1.0;
  shape.shift = 100;
  shape.delete_ratio = 0;
  shape.preload = options.smoke ? 1u << 13 : 1u << 20;
  shape.pool = shape.preload + (options.smoke ? 1u << 12 : 1u << 17);
  shape.batch = 256;
  shape.answer_every = 0;
  shape.both_streams_per_round = false;
  shape.three_queries = false;
  RunEngineJoin(shape, options, report, tracer);
}

void RunConcurrentPoint(const Options& options, Report* report,
                        Tracer* tracer) {
  report->Context("threads", "3 (writer + 2 ingest workers)");
  const uint64_t domain = options.smoke ? 1u << 12 : 1u << 20;
  const uint64_t batch = options.smoke ? 4096 : 65536;
  const uint64_t pool_batches = options.smoke ? 8 : 32;
  const uint64_t round_batches = options.smoke ? 4 : 64;
  const std::vector<StreamUpdate> pool = GenerateStream(
      domain, 1.1, 0, batch * pool_batches, 0.1, options.seed * 2 + 1);
  query::FrequencyQuerySpec spec;
  spec.stream = "f";
  spec.space_counters = options.smoke ? 1u << 12 : 1u << 20;
  Engine::IngestOptions ingest;
  ingest.shards = 2;
  ingest.concurrent = true;
  // The documented staleness bound: max_lag_elements plus one in-flight
  // chunk per worker.
  const double lag_bound = static_cast<double>(
      ingest.max_lag_elements + ingest.shards * (batch / ingest.shards));
  const std::span<const StreamUpdate> warmup(pool.data(), batch);

  auto setup = [&]() {
    ConcurrentEngine made;
    made.engine = std::make_unique<Engine>();
    Engine& e = *made.engine;
    report->Op(e.RegisterStream({"f", domain}).status(),
               "Engine::RegisterStream");
    StatusOr<QueryId> id = e.AddFrequencyQuery(spec, kFrequencySeed);
    report->Op(id.status(), "Engine::AddFrequencyQuery");
    made.id = id.ok() ? *id : 0;
    report->Op(e.SetIngestOptions(ingest), "Engine::SetIngestOptions");
    // Lazy warm-up: the first concurrent batch builds the ingestor, its
    // worker threads and their replicas.
    report->Op(e.UpdateBatch("f", warmup), "Engine::UpdateBatch");
    e.FlushIngest();
    return made;
  };
  std::vector<double> setup_seconds;
  ConcurrentEngine state = TimedSetup(setup, &setup_seconds);
  Engine& engine = *state.engine;
  FrequencyVector ref(domain);
  ApplyTo(&ref, warmup);
  skimjoin::metrics::Gauge* lag_gauge =
      engine.metrics_registry().GetGauge("ingest.f.epoch_lag");
  const std::vector<uint64_t> hot = HotValues();
  BatchCycle cycle(&pool, batch);

  std::vector<PointOp> ops;
  std::vector<double> read_ns;
  std::vector<double> lags;
  RateWindows ingest_rate(round_batches);
  uint64_t reads_past_bound = 0;
  double wall[2] = {0, 0};
  double work[2] = {0, 0};
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (uint64_t round = 0; NowNs() < deadline; ++round) {
    const bool traced = tracer != nullptr && round % 2 == 0;
    Tracer* spans = traced ? tracer : nullptr;
    for (uint64_t b = 0; b < round_batches && NowNs() < deadline; ++b) {
      const std::span<const StreamUpdate> next = cycle.Next();
      const int64_t t0 = NowNs();
      const Status status =
          Traced(spans, "query.update_batch", next.size(),
                 [&] { return engine.UpdateBatch("f", next); });
      ingest_rate.Add(static_cast<double>(next.size()),
                      static_cast<double>(NowNs() - t0));
      report->Op(status, "Engine::UpdateBatch");
      ApplyTo(&ref, next);
      const double lag = lag_gauge->Value();
      lags.push_back(lag);
      for (const uint64_t v : hot) {
        const int64_t r0 = NowNs();
        const StatusOr<int64_t> answer =
            Traced(spans, "query.answer_point", 1,
                   [&] { return engine.AnswerPointFrequency(state.id, v); });
        const double ns = static_cast<double>(NowNs() - r0);
        report->Op(answer.status(), "Engine::AnswerPointFrequency");
        read_ns.push_back(ns);
        wall[traced] += ns;
        work[traced] += 1;
        if (lag > lag_bound) ++reads_past_bound;
      }
      if (tracer != nullptr) ops.push_back({next, traced, false});
    }
    const int64_t t0 = NowNs();
    {
      Scoped span(spans, "query.flush_ingest");
      engine.FlushIngest();
    }
    ingest_rate.AddTime(static_cast<double>(NowNs() - t0));
    if (!ops.empty()) ops.back().flush_after = true;
  }

  IngestRate(ingest_rate,
             "Engine::UpdateBatch + the round's FlushIngest, 2 workers",
             report);
  AnswerLatency(read_ns, "Engine::AnswerPointFrequency", report);
  report->Metric("synopsis_kib", SynopsisKiB(engine), "KiB",
                 "sum of query.<id>.memory_bytes");
  char note[160];
  std::snprintf(note, sizeof(note),
                "ingest.f.epoch_lag after each batch; documented bound %.0f "
                "elements; %llu of %zu reads taken past it",
                lag_bound, static_cast<unsigned long long>(reads_past_bound),
                read_ns.size());
  report->Metric("read_lag_p50", Median(lags), "elements", note);
  report->Metric("ingest.reads_past_lag_bound",
                 static_cast<double>(reads_past_bound), "count",
                 "engine reads taken while epoch_lag exceeded the bound");

  const double envelope =
      PointEnvelope(ref, FrequencySketchConfig(domain, spec).num_buckets);
  double ratio_sum = 0;
  std::vector<int64_t> final_answers;
  for (const uint64_t v : hot) {
    const StatusOr<int64_t> answer = engine.AnswerPointFrequency(state.id, v);
    report->Op(answer.status(), "Engine::AnswerPointFrequency");
    final_answers.push_back(answer.ok() ? *answer : 0);
    CheckPoint(answer, v, ref, envelope, report, &ratio_sum);
  }
  FinishCommon(report, ratio_sum, hot.size());
  RepeatSetup(options, setup, &setup_seconds,
              "set-ups incl. the first concurrent batch", report);
  if (tracer == nullptr) return;

  // --- Traced run: replay through util, ingest and sketch. ---------------
  Scoped root(tracer, "replay");
  const core::SkimmedSketchConfig config = FrequencySketchConfig(domain, spec);
  StatusOr<SkimmedSketch> sequential =
      SkimmedSketch::Create(config, kFrequencySeed);
  StatusOr<SkimmedSketch> shared =
      SkimmedSketch::Create(config, kFrequencySeed);
  report->Op(sequential.status(), "SkimmedSketch::Create");
  report->Op(shared.status(), "SkimmedSketch::Create");
  if (!sequential.ok() || !shared.ok()) return;
  skimjoin::ingest::ConcurrentIngestOptions replay_options;
  replay_options.num_workers = ingest.shards;
  replay_options.propagation_interval_elements =
      ingest.propagation_interval_elements;
  replay_options.max_lag_elements = ingest.max_lag_elements;
  auto ingestor = skimjoin::ingest::ConcurrentIngestor<SkimmedSketch>::Create(
      &*shared, replay_options);
  report->Op(ingestor.status(), "ConcurrentIngestor::Create");
  if (!ingestor.ok()) return;
  skimjoin::util::StreamProfiler profiler;
  const auto warm = ToElements(warmup);
  sequential->UpdateBatch(warm);
  (*ingestor)->AbsorbBatch(warm);
  (*ingestor)->Flush();
  LevelHashes hashes(config, kFrequencySeed);
  report->Check(hashes.Matches(sequential->level0(), warm),
                "PolyEvalBlock over the rebuilt level-0 hash families equals "
                "the sketch's Bucket/Sign on the first batch");
  std::vector<double> replay_lags;
  std::vector<uint64_t> values;
  for (const PointOp& op : ops) {
    Tracer* spans = op.traced ? tracer : nullptr;
    const auto elements = ToElements(op.batch);
    {
      Scoped span(spans, "util.profiler", op.batch.size());
      for (const StreamUpdate& u : op.batch) {
        profiler.ObserveValue(u.value, u.count);
      }
    }
    if (op.traced) {
      values.clear();
      for (const auto& e : elements) values.push_back(e.value);
      hashes.Time(values, tracer);
    }
    {
      Scoped span(spans, "ingest.absorb", op.batch.size());
      (*ingestor)->AbsorbBatch(elements);
    }
    replay_lags.push_back(static_cast<double>((*ingestor)->epoch_lag()));
    {
      Scoped span(spans, "sketch.batch_update", elements.size());
      sequential->UpdateBatch(elements);
    }
    if (op.flush_after) {
      Scoped span(spans, "ingest.flush");
      (*ingestor)->Flush();
    }
  }
  (*ingestor)->Flush();
  const double propagations = static_cast<double>((*ingestor)->epoch());
  ingestor->reset();

  std::string engine_text;
  report->Op(engine.SerializeQuerySynopsis(state.id, &engine_text),
             "Engine::SerializeQuerySynopsis");
  const std::string replay_text = SerializeSketch(*sequential);
  report->Check(engine_text == replay_text,
                "sequential replay sketch serializes byte-identical to the "
                "engine's");
  report->Check(SerializeSketch(*shared) == replay_text,
                "concurrent replay sketch serializes byte-identical after "
                "Flush");
  bool answers_match = true;
  for (size_t i = 0; i < hot.size(); ++i) {
    answers_match = answers_match && sequential->EstimatePointFrequency(
                                         hot[i]) == final_answers[i];
  }
  report->Check(answers_match,
                "replay point estimates equal the engine's final answers bit "
                "for bit");

  const skimjoin::sketch::SlimView slim(sequential->level0());
  int64_t fat_sum = 0;
  int64_t slim_sum = 0;
  for (int rep = 0; rep < 2000; ++rep) {
    {
      Scoped span(tracer, "sketch.point_estimate", hot.size());
      for (const uint64_t v : hot) {
        fat_sum += sequential->EstimatePointFrequency(v);
      }
    }
    Scoped span(tracer, "sketch.slim_point_estimate", hot.size());
    for (const uint64_t v : hot) slim_sum += slim.PointEstimate(v);
  }
  report->Check(fat_sum == slim_sum,
                "SlimView point estimates equal the fat sketch's");

  const Tracer::Totals update = tracer->Sum("query.update_batch");
  const Tracer::Totals profile = tracer->Sum("util.profiler");
  const Tracer::Totals absorb = tracer->Sum("ingest.absorb");
  const Tracer::Totals reads = tracer->Sum("query.answer_point");
  const double point_ns = PerWork(*tracer, "sketch.point_estimate", 1);
  const double hits = static_cast<double>(sequential->hash_cache_hits());
  const double misses = static_cast<double>(sequential->hash_cache_misses());
  const double ingest_ratio = Ledger(update.ns, profile.ns + absorb.ns,
                                     "Engine::UpdateBatch", report);
  const double read_ratio =
      Ledger(reads.ns, point_ns * static_cast<double>(reads.count),
             "Engine::AnswerPointFrequency", report);
  // Medians: a few reads wait milliseconds on a propagation's writer lock,
  // which the ledger's totals keep but a per-read self time should not.
  const double read_p50 = Median(tracer->Durations("query.answer_point"));
  report->Metric("query.point_self_ns", read_p50 - point_ns, "ns",
                 "median Engine::AnswerPointFrequency minus "
                 "sketch.point_estimate_ns");
  report->Metric("util.profiler_ns_per_elem",
                 PerWork(*tracer, "util.profiler", 1), "ns",
                 "StreamProfiler::ObserveValue");
  report->Metric("sketch.batch_update_ns_per_elem",
                 PerWork(*tracer, "sketch.batch_update", 1), "ns",
                 "SkimmedSketch::UpdateBatch, default kernels, 2^20 counters");
  report->Metric("sketch.hash_cache_hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
                 "plan-cache hits / (hits + misses) of the batch replay");
  report->Metric("sketch.point_estimate_ns", point_ns, "ns",
                 "SkimmedSketch::EstimatePointFrequency");
  report->Metric("sketch.slim_point_estimate_ns",
                 PerWork(*tracer, "sketch.slim_point_estimate", 1), "ns",
                 "SlimView::PointEstimate on the same sketch");
  report->Metric("hashing.simd_hash_ns_per_value",
                 PerWork(*tracer, "hashing.simd_hash", 1), "ns",
                 std::string("PolyEvalBlock of the level-0 bucket and sign "
                             "polynomials per (value, table) at ") +
                     skimjoin::hashing::SimdLevelName(hashes.level()));
  report->Metric("ingest.absorb_us_per_batch", PerCall(absorb, 1e3), "us",
                 "ConcurrentIngestor::AbsorbBatch (writer side)");
  report->Metric("ingest.flush_ms", PerCall(tracer->Sum("ingest.flush"), 1e6),
                 "ms", "ConcurrentIngestor::Flush closing each round");
  report->Metric("ingest.propagations", propagations, "count",
                 "ConcurrentIngestor::epoch() at the end");
  report->Metric("ingest.lag_elems_p50", Median(replay_lags), "elements",
                 "ConcurrentIngestor::epoch_lag() after each batch");
  char ledger_note[160];
  std::snprintf(ledger_note, sizeof(ledger_note),
                "self share of Engine::UpdateBatch (%.4g ns per element); "
                "point read %.4g",
                (update.ns - profile.ns - absorb.ns) /
                    std::max(1.0, update.work),
                read_ratio);
  report->Metric("ledger.unexplained_ratio", ingest_ratio, "ratio",
                 ledger_note);
  report->Metric("trace.overhead_ratio", OverheadRatio(wall, work), "ratio",
                 "traced vs untraced AnswerPointFrequency");
}

namespace {

// Warm-up rounds (one UpdateBatch and one refresh each) at the end of every
// fleet set-up, on streams from fixed seeds. glibc's dynamic mmap
// threshold only ever grows, so the sizes of a coordinator's first batches
// fix whether each later refresh reuses the freed delta memory or pages it
// back in (~3,200 minor faults, 3.5x the refresh time, also slower ingest
// on a 4-vCPU VM). With seed-derived first batches about one process in
// four lands in the paging state and stays there, which made the refresh
// median flip with --seed; with these rounds every run starts from the
// same batches, and dist.refresh_page_faults shows which state it is in.
constexpr int kFleetWarmupRounds = 4;
constexpr uint64_t kWarmupSeedF = 1;
constexpr uint64_t kWarmupSeedG = 2;

/// Minor page faults of the whole process so far.
double MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_minflt);
}

}  // namespace

void RunFleetRefresh(const Options& options, Report* report, Tracer* tracer) {
  report->Context("threads", "3 (coordinator + 2 worker shards)");
  const uint64_t domain = options.smoke ? 1u << 10 : 1u << 16;
  const uint64_t batch = options.smoke ? 1024 : 16384;
  const uint64_t pool_batches = options.smoke ? 8 : 64;
  const std::vector<StreamUpdate> pool_f = GenerateStream(
      domain, 1.0, 0, batch * pool_batches, 0, options.seed * 2 + 1);
  const std::vector<StreamUpdate> pool_g = GenerateStream(
      domain, 1.0, 100, batch * pool_batches, 0, options.seed * 2 + 2);
  const uint64_t warmup_elements = batch * kFleetWarmupRounds / 2;
  const std::vector<StreamUpdate> warmup_f =
      GenerateStream(domain, 1.0, 0, warmup_elements, 0, kWarmupSeedF);
  const std::vector<StreamUpdate> warmup_g =
      GenerateStream(domain, 1.0, 100, warmup_elements, 0, kWarmupSeedG);
  query::JoinQuerySpec join_spec;
  join_spec.left_stream = "f";
  join_spec.right_stream = "g";
  join_spec.estimator = SkimmedSpec();
  query::FrequencyQuerySpec freq_spec;
  freq_spec.stream = "f";
  freq_spec.space_counters = 4096;

  auto setup = [&]() {
    FleetState made;
    StatusOr<std::unique_ptr<Fleet>> fleet = Fleet::Start(options.scratch, 2);
    report->Op(fleet.status(), "Fleet::Start");
    if (!fleet.ok()) return made;
    made.fleet = *std::move(fleet);
    skimjoin::dist::Coordinator& c = made.fleet->coordinator();
    report->Op(c.RegisterStream({"f", domain}), "Coordinator::RegisterStream");
    report->Op(c.RegisterStream({"g", domain}), "Coordinator::RegisterStream");
    StatusOr<QueryId> join = c.AddJoinQuery(join_spec, kJoinSeed);
    report->Op(join.status(), "Coordinator::AddJoinQuery");
    StatusOr<QueryId> freq = c.AddFrequencyQuery(freq_spec, kFrequencySeed);
    report->Op(freq.status(), "Coordinator::AddFrequencyQuery");
    made.join = join.ok() ? *join : 0;
    made.frequency = freq.ok() ? *freq : 0;
    for (int round = 0; round < kFleetWarmupRounds; ++round) {
      const bool f = round % 2 == 0;
      const std::span<const StreamUpdate> next =
          std::span<const StreamUpdate>(f ? warmup_f : warmup_g)
              .subspan(round / 2 * batch, batch);
      report->Op(c.UpdateBatch(f ? "f" : "g", next),
                 "Coordinator::UpdateBatch");
      report->Op(c.AnswerPointFrequency(made.frequency, 0).status(),
                 "Coordinator::AnswerPointFrequency");
    }
    return made;
  };
  std::vector<double> setup_seconds;
  FleetState state = TimedSetup(setup, &setup_seconds);
  if (state.fleet == nullptr) return;
  skimjoin::dist::Coordinator& coordinator = state.fleet->coordinator();
  FrequencyVector ref_f(domain);
  FrequencyVector ref_g(domain);
  ApplyTo(&ref_f, warmup_f);
  ApplyTo(&ref_g, warmup_g);
  BatchCycle cycle_f(&pool_f, batch);
  BatchCycle cycle_g(&pool_g, batch);
  const std::vector<uint64_t> hot = HotValues();

  std::optional<FleetReplay> replay;
  if (tracer != nullptr) {
    replay.emplace(FrequencySketchConfig(domain, freq_spec), kFrequencySeed,
                   report);
    if (!replay->ok()) return;
    replay->Update(0, warmup_f, nullptr);
    replay->Update(1, warmup_g, nullptr);
  }
  std::vector<double> refresh_ns;
  std::vector<double> refresh_faults;
  RateWindows ingest_rate(8);
  double wall[2] = {0, 0};
  double work[2] = {0, 0};
  std::optional<CpuRotation> rotation(std::in_place);
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (uint64_t round = 0; NowNs() < deadline; ++round) {
    rotation->Tick();
    const bool traced = tracer != nullptr && round % 2 == 0;
    Tracer* spans = traced ? tracer : nullptr;
    const int stream = static_cast<int>(round % 2);
    const std::span<const StreamUpdate> next =
        stream == 0 ? cycle_f.Next() : cycle_g.Next();
    int64_t t0 = NowNs();
    const Status status =
        Traced(spans, "dist.coordinator_update_batch", next.size(), [&] {
          return coordinator.UpdateBatch(stream == 0 ? "f" : "g", next);
        });
    ingest_rate.Add(static_cast<double>(next.size()),
                    static_cast<double>(NowNs() - t0));
    report->Op(status, "Coordinator::UpdateBatch");
    ApplyTo(stream == 0 ? &ref_f : &ref_g, next);
    if (replay) replay->Update(stream, next, spans);

    const uint64_t value = hot[round % hot.size()];
    const double faults = MinorFaults();
    t0 = NowNs();
    const StatusOr<int64_t> answer =
        Traced(spans, "dist.coordinator_answer_point", 1, [&] {
          return coordinator.AnswerPointFrequency(state.frequency, value);
        });
    const double ns = static_cast<double>(NowNs() - t0);
    refresh_faults.push_back(MinorFaults() - faults);
    report->Op(answer.status(), "Coordinator::AnswerPointFrequency");
    refresh_ns.push_back(ns);
    wall[traced] += ns;
    work[traced] += 1;
    if (traced) replay->Refresh(value, answer, tracer);
  }
  rotation.reset();

  IngestRate(ingest_rate, "Coordinator::UpdateBatch, 2 shards", report);
  AnswerLatency(refresh_ns, "Coordinator::AnswerPointFrequency refresh",
                report);
  report->Metric("dist.refresh_page_faults", Median(refresh_faults), "count",
                 "minor page faults of the process across each "
                 "Coordinator::AnswerPointFrequency refresh, median");
  double synopsis_bytes = 0;
  StatusOr<skimjoin::metrics::Snapshot> fleet_metrics =
      coordinator.FleetMetricsSnapshot();
  report->Op(fleet_metrics.status(), "Coordinator::FleetMetricsSnapshot");
  if (fleet_metrics.ok()) {
    for (const auto& [name, value] : fleet_metrics->gauges) {
      if (name.rfind("query.", 0) == 0 &&
          name.find(".memory_bytes{") != std::string::npos) {
        synopsis_bytes += value;
      }
    }
  }
  report->Metric("synopsis_kib", synopsis_bytes / 1024.0, "KiB",
                 "query.<id>.memory_bytes summed over shards");
  report->Metric("read_lag_p50", 0, "elements", "acked batches are visible");

  double ratio_sum = 0;
  size_t answers = 0;
  const StatusOr<EstimateReport> joined =
      coordinator.AnswerJoinWithReport(state.join);
  report->Op(joined.status(), "Coordinator::AnswerJoinWithReport");
  if (joined.ok()) {
    report->Check(!joined->partial, "fleet join answer is not partial");
    CheckJoin(*joined,
              static_cast<double>(skimjoin::stream::JoinSize(ref_f, ref_g)),
              "fleet f_join_g", report, &ratio_sum);
    ++answers;
  }
  const double envelope = PointEnvelope(
      ref_f, FrequencySketchConfig(domain, freq_spec).num_buckets);
  std::vector<int64_t> final_answers;
  for (const uint64_t v : hot) {
    const StatusOr<int64_t> answer =
        coordinator.AnswerPointFrequency(state.frequency, v);
    report->Op(answer.status(), "Coordinator::AnswerPointFrequency");
    final_answers.push_back(answer.ok() ? *answer : 0);
    CheckPoint(answer, v, ref_f, envelope, report, &ratio_sum);
    if (answer.ok()) ++answers;
  }
  FinishCommon(report, ratio_sum, answers);

  const skimjoin::metrics::Snapshot registry =
      coordinator.metrics_registry().TakeSnapshot();
  const auto* update_rpc =
      FindHistogram(registry, "dist.rpc.update_batch.latency_ns");
  const auto* pull_rpc =
      FindHistogram(registry, "dist.rpc.pull_delta.latency_ns");
  const double pulls =
      pull_rpc != nullptr ? static_cast<double>(pull_rpc->count) : 0;
  report->Metric("dist.update_rpc_us",
                 update_rpc != nullptr ? update_rpc->Quantile(0.5) / 1e3 : 0,
                 "us", "p50 of dist.rpc.update_batch.latency_ns");
  report->Metric("dist.pull_rpc_us",
                 pull_rpc != nullptr ? pull_rpc->Quantile(0.5) / 1e3 : 0, "us",
                 "p50 of dist.rpc.pull_delta.latency_ns");
  report->Metric(
      "dist.delta_bytes_per_pull",
      DistCounterTotal(registry, ".delta_bytes") / std::max(1.0, pulls),
      "bytes", "dist.<shard>.delta_bytes / pull RPCs");
  report->Metric("dist.rpc_retries",
                 DistCounterTotal(registry, ".rpc_retries"), "count",
                 "dist.<shard>.rpc_retries");
  report->Metric("dist.rpc_failures",
                 DistCounterTotal(registry, ".rpc_failures"), "count",
                 "dist.<shard>.rpc_failures");
  report->Op(state.fleet->Stop(), "Worker::Serve");
  RepeatSetup(options, setup, &setup_seconds,
              "fleet start-ups with registration", report);
  if (tracer == nullptr) return;

  // --- Traced run: fidelity of the replay, then the layer rows. ---------
  report->Check(replay->matches(),
                "replayed wire round trips and serialize/deserialize/merge/"
                "point equal every traced refresh bit for bit");
  for (size_t k = 0; k < 2; ++k) {
    const std::string replay_text = SerializeSketch(replay->shard(k));
    Engine& worker = state.fleet->worker_engine(k);
    bool found = false;
    for (QueryId id = 1; id <= worker.num_queries() && !found; ++id) {
      std::string text;
      found = worker.SerializeQuerySynopsis(id, &text).ok() &&
              text == replay_text;
    }
    report->Check(found, "shard " + std::to_string(k) +
                             " replay sketch serializes byte-identical to "
                             "the worker engine's frequency query");
  }
  SkimmedSketch merged = replay->shard(0);
  merged.Merge(replay->shard(1));
  bool finals_match = true;
  for (size_t i = 0; i < hot.size(); ++i) {
    finals_match = finals_match &&
                   merged.EstimatePointFrequency(hot[i]) == final_answers[i];
  }
  report->Check(finals_match,
                "merged replay equals the final fleet point answers");

  const Tracer::Totals refresh = tracer->Sum("dist.coordinator_answer_point");
  const Tracer::Totals update = tracer->Sum("dist.coordinator_update_batch");
  const Tracer::Totals deserialize = tracer->Sum("sketch.deserialize");
  const Tracer::Totals merge = tracer->Sum("core.merge");
  const Tracer::Totals point = tracer->Sum("sketch.point_estimate");
  const Tracer::Totals encode = tracer->Sum("dist.encode_update");
  // The RPC histograms cover every round; their means (sum / count) are
  // exact, unlike the bucket-interpolated p50 rows.
  const double pull_mean = pull_rpc != nullptr ? pull_rpc->Mean() : 0;
  const double update_mean = update_rpc != nullptr ? update_rpc->Mean() : 0;
  const double refresh_children = 2 * pull_mean + 2 * PerCall(deserialize, 1) +
                                  PerCall(merge, 1) + PerCall(point, 1);
  const double update_children = 2 * update_mean + 2 * PerCall(encode, 1);
  const double refresh_ratio =
      Ledger(PerCall(refresh, 1), refresh_children,
             "Coordinator::AnswerPointFrequency", report);
  const double update_ratio = Ledger(PerCall(update, 1), update_children,
                                     "Coordinator::UpdateBatch", report);
  report->Metric("sketch.serialize_us",
                 PerCall(tracer->Sum("sketch.serialize"), 1e3), "us",
                 "SkimmedSketch::SerializeTo of one shard delta");
  report->Metric("sketch.deserialize_us", PerCall(deserialize, 1e3), "us",
                 "SkimmedSketch::DeserializeFrom of one shard delta");
  report->Metric("core.merge_us", PerCall(merge, 1e3), "us",
                 "SkimmedSketch::Merge of the two shard deltas");
  report->Metric("sketch.point_estimate_ns", PerCall(point, 1), "ns",
                 "SkimmedSketch::EstimatePointFrequency on the merged sketch");
  report->Metric("dist.encode_update_us", PerCall(encode, 1e3), "us",
                 "EncodeUpdateBatch + EncodeFrame per routed batch");
  report->Metric("dist.decode_update_us",
                 PerCall(tracer->Sum("dist.decode_update"), 1e3), "us",
                 "TryDecodeFrame + DecodeUpdateBatch per routed batch");
  char ledger_note[200];
  std::snprintf(ledger_note, sizeof(ledger_note),
                "self share of Coordinator::AnswerPointFrequency (%.4g us "
                "beyond 2 pulls, 2 parses, merge and read); UpdateBatch %.4g",
                (PerCall(refresh, 1) - refresh_children) / 1e3, update_ratio);
  report->Metric("ledger.unexplained_ratio", refresh_ratio, "ratio",
                 ledger_note);
  report->Metric("trace.overhead_ratio", OverheadRatio(wall, work), "ratio",
                 "traced vs untraced refresh");
}

}  // namespace perfbench
