// Engine::HealthReport() integration tests: the acceptance pin for the
// sketch-health subsystem. A skewed stream pushed through an undersized
// synopsis must surface as a finding naming the right stream and query
// ids, the health gauges must land in the metrics snapshot with HELP
// text, and — the non-negotiable — every paper-estimator answer must be
// bit-identical with the profiler on and off.

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/engine.h"
#include "stream/zipf.h"
#include "util/metrics.h"
#include "util/random.h"

namespace skimjoin {
namespace query {
namespace {

std::vector<StreamUpdate> ZipfUpdates(double z, uint64_t domain,
                                      uint64_t count, uint64_t seed) {
  Rng rng(seed);
  const stream::ZipfDistribution distribution(domain, z);
  std::vector<StreamUpdate> updates;
  updates.reserve(count);
  for (const stream::StreamElement& element :
       distribution.GenerateElements(count, &rng)) {
    updates.push_back({.value = element.value, .count = element.weight});
  }
  return updates;
}

const HealthFinding* FindRule(const std::vector<HealthFinding>& findings,
                              const std::string& rule,
                              const std::string& subject) {
  for (const HealthFinding& finding : findings) {
    if (finding.rule == rule && finding.subject == subject) return &finding;
  }
  return nullptr;
}

// The acceptance scenario: a skewed stream into an undersized hash
// sketch. The doctor must flag collision pressure on the right query id
// with the joined stream names in the message.
TEST(HealthReportTest, UndersizedSketchFlagsCollisionPressure) {
  constexpr uint64_t kDomain = 1u << 13;
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream({"f", kDomain}).ok());
  ASSERT_TRUE(engine.RegisterStream({"g", kDomain}).ok());
  JoinQuerySpec spec;
  spec.left_stream = "f";
  spec.right_stream = "g";
  spec.estimator.kind = core::EstimatorKind::kHashSketch;
  spec.estimator.space_counters = 256;  // ~32x fewer buckets than values
  const StatusOr<QueryId> id = engine.AddJoinQuery(spec, 42);
  ASSERT_TRUE(id.ok());

  // Touch every domain value so bucket occupancy saturates.
  std::vector<StreamUpdate> sweep;
  sweep.reserve(kDomain);
  for (uint64_t value = 0; value < kDomain; ++value) {
    sweep.push_back({.value = value, .count = 1});
  }
  ASSERT_TRUE(engine.UpdateBatch("f", sweep).ok());
  ASSERT_TRUE(engine.UpdateBatch("g", sweep).ok());

  const query::HealthReport report = engine.HealthReport();

  ASSERT_FALSE(report.queries.empty());
  const QueryHealth& query = report.queries.front();
  EXPECT_EQ(query.id, *id);
  EXPECT_EQ(query.kind, "join");
  EXPECT_EQ(query.streams, "f⋈g");
  ASSERT_FALSE(query.synopses.empty());
  for (const SynopsisHealth& synopsis : query.synopses) {
    EXPECT_GE(synopsis.occupancy, 0.95);
    // The occupancy inversion saturates as buckets fill, so the pressure
    // estimate undershoots the true ~32 values/bucket — it still must read
    // clearly oversubscribed (the finding itself fires on occupancy).
    EXPECT_FALSE(std::isnan(synopsis.collision_pressure));
    EXPECT_GE(synopsis.collision_pressure, 2.0);
  }

  const std::string subject = "query " + std::to_string(*id);
  const HealthFinding* finding =
      FindRule(report.findings, "collision-pressure", subject);
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->severity, HealthFinding::Severity::kWarn);
  EXPECT_NE(finding->message.find("f⋈g"), std::string::npos);
  EXPECT_NE(finding->message.find("undersized"), std::string::npos);
}

// Counter saturation: weights big enough that the p99 counter magnitude
// crosses half of int32 must raise the slim-view fallback warning.
TEST(HealthReportTest, HeavyWeightsFlagInt32Saturation) {
  constexpr uint64_t kDomain = 1u << 10;
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream({"s", kDomain}).ok());
  FrequencyQuerySpec spec;
  spec.stream = "s";
  spec.space_counters = 64;
  spec.num_tables = 3;
  spec.use_dyadic = false;
  const StatusOr<QueryId> id = engine.AddFrequencyQuery(spec, 7);
  ASSERT_TRUE(id.ok());

  std::vector<StreamUpdate> heavy;
  for (uint64_t value = 0; value < kDomain; ++value) {
    heavy.push_back({.value = value, .count = 1'500'000'000});
  }
  ASSERT_TRUE(engine.UpdateBatch("s", heavy).ok());

  const query::HealthReport report = engine.HealthReport();
  const std::string subject = "query " + std::to_string(*id);
  const HealthFinding* finding =
      FindRule(report.findings, "counter-saturation", subject);
  ASSERT_NE(finding, nullptr);
  EXPECT_NE(finding->message.find("int"), std::string::npos);
}

// The bit-identity pin: the profiler observes the stream but must never
// perturb an estimate. Same seeds, same updates, profiler on vs off —
// every answer identical to the last bit.
TEST(HealthReportTest, AnswersBitIdenticalWithProfilerOnAndOff) {
  constexpr uint64_t kDomain = 1u << 12;
  const std::vector<StreamUpdate> left = ZipfUpdates(1.1, kDomain, 20'000, 5);
  const std::vector<StreamUpdate> right = ZipfUpdates(1.1, kDomain, 20'000, 6);

  const auto build_and_answer = [&](bool profiler_on, double* join_answer,
                                    std::vector<int64_t>* frequencies) {
    Engine engine;
    engine.SetProfilerEnabled(profiler_on);
    ASSERT_TRUE(engine.RegisterStream({"f", kDomain}).ok());
    ASSERT_TRUE(engine.RegisterStream({"g", kDomain}).ok());
    JoinQuerySpec join;
    join.left_stream = "f";
    join.right_stream = "g";
    join.estimator.kind = core::EstimatorKind::kSkimmedSketch;
    join.estimator.space_counters = 2048;
    const StatusOr<QueryId> join_id = engine.AddJoinQuery(join, 11);
    ASSERT_TRUE(join_id.ok());
    FrequencyQuerySpec freq;
    freq.stream = "f";
    freq.space_counters = 1024;
    const StatusOr<QueryId> freq_id = engine.AddFrequencyQuery(freq, 13);
    ASSERT_TRUE(freq_id.ok());
    ASSERT_TRUE(engine.UpdateBatch("f", left).ok());
    ASSERT_TRUE(engine.UpdateBatch("g", right).ok());
    const StatusOr<double> join_result = engine.AnswerJoin(*join_id);
    ASSERT_TRUE(join_result.ok());
    *join_answer = *join_result;
    for (uint64_t value = 0; value < 32; ++value) {
      const StatusOr<int64_t> frequency =
          engine.AnswerPointFrequency(*freq_id, value);
      ASSERT_TRUE(frequency.ok());
      frequencies->push_back(*frequency);
    }
  };

  double join_on = 0.0, join_off = 0.0;
  std::vector<int64_t> freq_on, freq_off;
  build_and_answer(true, &join_on, &freq_on);
  build_and_answer(false, &join_off, &freq_off);
  // Exact double equality on purpose: the profiler must be invisible to
  // the estimators, not merely close.
  EXPECT_EQ(join_on, join_off);
  EXPECT_EQ(freq_on, freq_off);
}

TEST(HealthReportTest, StreamProfileAccessorAndKillSwitch) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream({"f", 1u << 10}).ok());
  EXPECT_FALSE(engine.StreamProfile("nope").ok());

  ASSERT_TRUE(engine.Update("f", {.value = 3, .count = 2}).ok());
  StatusOr<util::StreamProfiler::Snapshot> profile =
      engine.StreamProfile("f");
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->observations, 1u);
  EXPECT_EQ(profile->net_mass, 2);

  // The runtime kill switch stops observation without losing prior state.
  engine.SetProfilerEnabled(false);
  EXPECT_FALSE(engine.profiler_enabled());
  ASSERT_TRUE(engine.Update("f", {.value = 4, .count = 1}).ok());
  profile = engine.StreamProfile("f");
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->observations, 1u);
}

TEST(HealthReportTest, StreamRulesFireOnDropsAndDeletes) {
  constexpr uint64_t kDomain = 64;
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream({"f", kDomain}).ok());
  // Batch ingest skips out-of-domain elements and counts them as drops.
  std::vector<StreamUpdate> batch;
  batch.push_back({.value = 1, .count = 2});
  batch.push_back({.value = kDomain + 5, .count = 1});
  batch.push_back({.value = 2, .count = -2});
  ASSERT_TRUE(engine.UpdateBatch("f", batch).ok());

  const query::HealthReport report = engine.HealthReport();
  EXPECT_NE(FindRule(report.findings, "domain-drops", "stream f"), nullptr);
  EXPECT_NE(FindRule(report.findings, "delete-heavy", "stream f"), nullptr);
}

// The skew-cache-mismatch rule: a stream whose mass is skewed (fitted skew
// >= 1.2) while its plan-cache probes mostly miss. Ten values carry almost
// all of the mass in single heavy-weight updates and every other update is
// a distinct cold value, so the fixed-size plan cache hits well below 0.5.
TEST(HealthReportTest, SkewedStreamWithColdPlanCacheFlagsSkewCacheMismatch) {
  constexpr uint64_t kDomain = 1u << 22;
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream({"f", kDomain}).ok());
  FrequencyQuerySpec freq;
  freq.stream = "f";
  ASSERT_TRUE(engine.AddFrequencyQuery(freq, 3).ok());
  std::vector<StreamUpdate> batch;
  for (uint64_t value = 0; value < 10; ++value) {
    batch.push_back({.value = value, .count = 100000});
  }
  Rng rng(77);
  for (int i = 0; i < 50000; ++i) {
    batch.push_back({.value = 16 + rng.NextUint64Below(kDomain - 16),
                     .count = 1});
  }
  ASSERT_TRUE(engine.UpdateBatch("f", batch).ok());

  const query::HealthReport report = engine.HealthReport();
  ASSERT_EQ(report.streams.size(), 1u);
  EXPECT_LT(report.streams[0].hash_cache_hit_rate, 0.5);
  ASSERT_TRUE(report.streams[0].profile.has_value());
  EXPECT_GE(report.streams[0].profile->skew, 1.2);
  const HealthFinding* finding =
      FindRule(report.findings, "skew-cache-mismatch", "stream f");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->severity, HealthFinding::Severity::kInfo);
  // The finding states the observation; the slot count is not a setting.
  EXPECT_NE(finding->message.find("on the fixed 16384-slot hash-plan cache"),
            std::string::npos)
      << finding->message;
  EXPECT_EQ(finding->message.find("raise"), std::string::npos)
      << finding->message;
}

// The health gauges published by HealthReport must appear in the metrics
// snapshot, and — the HELP-coverage satellite — every family exported to
// Prometheus must carry a # HELP line.
TEST(HealthReportTest, GaugesPublishedAndEveryFamilyHasHelp) {
  constexpr uint64_t kDomain = 1u << 10;
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream({"f", kDomain}).ok());
  ASSERT_TRUE(engine.RegisterStream({"g", kDomain}).ok());
  JoinQuerySpec join;
  join.left_stream = "f";
  join.right_stream = "g";
  join.estimator.kind = core::EstimatorKind::kSkimmedSketch;
  join.estimator.space_counters = 512;
  ASSERT_TRUE(engine.AddJoinQuery(join, 3).ok());
  FrequencyQuerySpec freq;
  freq.stream = "f";
  freq.space_counters = 256;
  const StatusOr<QueryId> freq_id = engine.AddFrequencyQuery(freq, 4);
  ASSERT_TRUE(freq_id.ok());
  const std::vector<StreamUpdate> updates = ZipfUpdates(1.0, kDomain, 5000, 9);
  ASSERT_TRUE(engine.UpdateBatch("f", updates).ok());
  ASSERT_TRUE(engine.UpdateBatch("g", updates).ok());
  ASSERT_TRUE(engine.AnswerPointFrequency(*freq_id, 0).ok());
  (void)engine.HealthReport();

  const metrics::Snapshot snapshot = engine.MetricsSnapshot();
  bool saw_occupancy = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.find(".health.occupancy") != std::string::npos) {
      saw_occupancy = true;
      EXPECT_GT(value, 0.0);
    }
  }
  EXPECT_TRUE(saw_occupancy);

  // Every "# TYPE <family> ..." line must be directly preceded by a
  // "# HELP <family> ..." line.
  const std::string prom = metrics::ToPrometheusText(snapshot);
  std::istringstream lines(prom);
  std::string line, previous;
  size_t families = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      ++families;
      const std::string family = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_EQ(previous.rfind("# HELP " + family + " ", 0), 0u)
          << "family " << family << " exported without HELP";
    }
    previous = line;
  }
  EXPECT_GT(families, 10u);
}

}  // namespace
}  // namespace query
}  // namespace skimjoin
