// Recovery torture tests for Engine::SaveCheckpoint / RestoreCheckpoint:
// byte-level truncation and corruption sweeps over a real checkpoint file
// (restore must fail cleanly — never abort, never silently answer wrong),
// crash-during-save fault injection proving an existing checkpoint is never
// clobbered, partial recovery, and a full round-trip equivalence test where
// a restored engine must answer every query bit-identically to an engine
// that never stopped.

#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "one_per_kind_engine.h"
#include "query/engine.h"
#include "sketch/partitioned_agms.h"
#include "stream/frequency_vector.h"
#include "stream/zipf.h"
#include "util/durable_file.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "util/status.h"

namespace skimjoin {
namespace query {
namespace {

std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "checkpoint_" + info->name() + "_" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  ASSERT_TRUE(static_cast<bool>(out)) << path;
}

// Every section of a durable file, by name.
std::map<std::string, std::string> ReadSections(const std::string& path) {
  std::map<std::string, std::string> sections;
  StatusOr<util::DurableFileReader> reader =
      util::DurableFileReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status();
  if (!reader.ok()) return sections;
  for (;;) {
    StatusOr<std::optional<util::DurableSection>> next = reader->Next();
    EXPECT_TRUE(next.ok()) << next.status();
    if (!next.ok() || !next->has_value()) break;
    sections[(*next)->name] = std::move((*next)->payload);
  }
  return sections;
}

// Rewrites a checkpoint from (name, payload) sections in order.
void WriteSections(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& sections) {
  StatusOr<util::DurableFileWriter> writer =
      util::DurableFileWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const auto& [name, payload] : sections) {
    ASSERT_TRUE(writer->AppendSection(name, payload).ok()) << name;
  }
  ASSERT_TRUE(writer->Commit().ok());
}

void ExpectEmpty(const Engine& engine) {
  EXPECT_EQ(engine.num_streams(), 0u);
  EXPECT_EQ(engine.num_relations(), 0u);
  EXPECT_EQ(engine.num_queries(), 0u);
}

// Byte offsets of every frame boundary in a durable file: after the magic,
// and after each section frame (including the end marker). Lets the torture
// tests cut exactly at section boundaries — the truncation a CRC alone
// cannot catch.
std::vector<size_t> FrameBoundaries(const std::string& bytes) {
  std::vector<size_t> boundaries;
  size_t offset = 20;  // "skimjoin.durable v1\n"
  boundaries.push_back(offset);
  const auto u32 = [&](size_t at) {
    return static_cast<uint32_t>(static_cast<unsigned char>(bytes[at])) |
           static_cast<uint32_t>(static_cast<unsigned char>(bytes[at + 1]))
               << 8 |
           static_cast<uint32_t>(static_cast<unsigned char>(bytes[at + 2]))
               << 16 |
           static_cast<uint32_t>(static_cast<unsigned char>(bytes[at + 3]))
               << 24;
  };
  while (offset + 12 <= bytes.size()) {
    const uint64_t name_len = u32(offset);
    const uint64_t payload_len = u32(offset + 4);
    offset += 12 + name_len + payload_len;
    if (offset > bytes.size()) break;
    boundaries.push_back(offset);
  }
  return boundaries;
}

// --- a compact engine for the byte-sweep torture tests ---------------------

struct SmallIds {
  QueryId frequency = 0;
  QueryId quantile = 0;
  QueryId range_sum = 0;
};

SmallIds BuildSmallEngine(Engine* engine) {
  SmallIds ids;
  SKIMJOIN_CHECK_OK(engine->RegisterStream({"s", 1u << 8}).status());

  FrequencyQuerySpec frequency;
  frequency.stream = "s";
  frequency.space_counters = 64;
  frequency.num_tables = 4;
  frequency.use_dyadic = false;
  auto fq = engine->AddFrequencyQuery(frequency, 11);
  SKIMJOIN_CHECK_OK(fq.status());
  ids.frequency = *fq;

  QuantileQuerySpec quantile;
  quantile.stream = "s";
  quantile.epsilon = 0.05;
  auto qq = engine->AddQuantileQuery(quantile);
  SKIMJOIN_CHECK_OK(qq.status());
  ids.quantile = *qq;

  RangeSumQuerySpec range_sum;
  range_sum.stream = "s";
  range_sum.coefficient_budget = 16;
  auto rq = engine->AddRangeSumQuery(range_sum);
  SKIMJOIN_CHECK_OK(rq.status());
  ids.range_sum = *rq;

  Rng rng(7);
  stream::ZipfDistribution zipf(1u << 8, 1.0);
  for (const stream::StreamElement& e : zipf.GenerateElements(300, &rng)) {
    SKIMJOIN_CHECK_OK(engine->Update(
        "s", StreamUpdate{e.value, e.weight, 0}));
  }
  return ids;
}

// --- torture: truncation ---------------------------------------------------

TEST(CheckpointTortureTest, TruncationAtEveryByteFailsCleanly) {
  Engine engine;
  BuildSmallEngine(&engine);
  const std::string path = TempPath("full");
  ASSERT_TRUE(engine.SaveCheckpoint(path, {{"note", "torture"}}).ok());
  const std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 100u);

  const std::string truncated_path = TempPath("truncated");
  for (size_t length = 0; length < bytes.size(); ++length) {
    WriteAll(truncated_path, bytes.substr(0, length));
    Engine restored;
    StatusOr<RestoreReport> report = restored.RestoreCheckpoint(truncated_path);
    EXPECT_FALSE(report.ok()) << "truncation to " << length
                              << " bytes was not detected";
    ExpectEmpty(restored);
  }

  // The untouched file still restores — nothing above damaged it.
  Engine restored;
  ASSERT_TRUE(restored.RestoreCheckpoint(path).ok());
  EXPECT_EQ(restored.num_queries(), 3u);
}

TEST(CheckpointTortureTest, TruncationAtEverySectionBoundaryFailsCleanly) {
  Engine engine;
  BuildSmallEngine(&engine);
  const std::string path = TempPath("full");
  ASSERT_TRUE(engine.SaveCheckpoint(path, {{"note", "torture"}}).ok());
  const std::string bytes = ReadAll(path);

  // manifest + meta + 3 query sections + end marker ⇒ 6 frames, 7 boundaries.
  const std::vector<size_t> boundaries = FrameBoundaries(bytes);
  ASSERT_EQ(boundaries.size(), 7u);
  ASSERT_EQ(boundaries.back(), bytes.size());

  const std::string truncated_path = TempPath("truncated");
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    WriteAll(truncated_path, bytes.substr(0, boundaries[i]));
    Engine restored;
    StatusOr<RestoreReport> report = restored.RestoreCheckpoint(truncated_path);
    EXPECT_FALSE(report.ok())
        << "truncation at frame boundary " << boundaries[i]
        << " looked like a complete checkpoint";
    ExpectEmpty(restored);
  }
}

// --- torture: corruption ---------------------------------------------------

TEST(CheckpointTortureTest, BitFlipAtEveryByteFailsCleanly) {
  Engine engine;
  BuildSmallEngine(&engine);
  const std::string path = TempPath("full");
  ASSERT_TRUE(engine.SaveCheckpoint(path, {{"note", "torture"}}).ok());
  const std::string bytes = ReadAll(path);

  const std::string corrupt_path = TempPath("corrupt");
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0xff);
    WriteAll(corrupt_path, corrupt);
    Engine restored;
    StatusOr<RestoreReport> report = restored.RestoreCheckpoint(corrupt_path);
    EXPECT_FALSE(report.ok()) << "byte flip at offset " << offset
                              << " was not detected";
    ExpectEmpty(restored);
  }

  // The previous good checkpoint still loads after the whole sweep.
  Engine restored;
  ASSERT_TRUE(restored.RestoreCheckpoint(path).ok());
  EXPECT_EQ(restored.num_queries(), 3u);
}

// --- crash-during-save fault injection -------------------------------------

TEST(CheckpointCrashTest, CrashDuringSaveNeverClobbersOldCheckpoint) {
  const std::string path = TempPath("ckpt");

  Engine engine;
  const SmallIds ids = BuildSmallEngine(&engine);
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  const std::string good_bytes = ReadAll(path);
  const StatusOr<uint64_t> good_median = engine.AnswerQuantile(ids.quantile,
                                                               0.5);
  ASSERT_TRUE(good_median.ok());

  // Mutate the engine so the attempted second checkpoint differs, then
  // crash the save at every stage of the write path in turn.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.Update("s", StreamUpdate{uint64_t(i % 251), 1, 0}).ok());
  }
  const char* kCrashPoints[] = {"durable:open-temp", "durable:append",
                                "durable:fsync", "durable:rename",
                                "checkpoint:after-header"};
  for (const char* point : kCrashPoints) {
    failpoint::Spec spec;
    spec.mode = failpoint::Mode::kCrash;
    failpoint::ScopedFailpoint guard(point, spec);
    const Status crashed = engine.SaveCheckpoint(path);
    ASSERT_FALSE(crashed.ok()) << point;
    EXPECT_TRUE(failpoint::IsSimulatedCrash(crashed)) << point;
    EXPECT_EQ(ReadAll(path), good_bytes)
        << "crash at " << point << " altered the committed checkpoint";
  }

  // Torn write mid-save: same guarantee.
  {
    failpoint::Spec spec;
    spec.mode = failpoint::Mode::kTornWrite;
    spec.torn_bytes = 5;
    spec.skip = 2;
    failpoint::ScopedFailpoint guard("durable:append", spec);
    const Status torn = engine.SaveCheckpoint(path);
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ(ReadAll(path), good_bytes);
  }

  // Plain I/O error on fsync: save fails, old checkpoint intact.
  {
    failpoint::Spec spec;
    failpoint::ScopedFailpoint guard("durable:fsync", spec);
    const Status failed = engine.SaveCheckpoint(path);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(ReadAll(path), good_bytes);
  }

  // The surviving checkpoint restores the ORIGINAL state.
  Engine restored;
  ASSERT_TRUE(restored.RestoreCheckpoint(path).ok());
  const StatusOr<uint64_t> restored_median =
      restored.AnswerQuantile(ids.quantile, 0.5);
  ASSERT_TRUE(restored_median.ok());
  EXPECT_EQ(*restored_median, *good_median);

  // And with the failpoints gone, a clean save of the new state succeeds.
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  Engine restored_v2;
  ASSERT_TRUE(restored_v2.RestoreCheckpoint(path).ok());
  StatusOr<int64_t> count = restored_v2.StreamElementCount("s");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 350);
}

// --- partial restore -------------------------------------------------------

TEST(CheckpointPartialTest, AllowPartialRecoversEveryIntactSection) {
  Engine engine;
  const SmallIds ids = BuildSmallEngine(&engine);
  const std::string path = TempPath("ckpt");
  ASSERT_TRUE(engine.SaveCheckpoint(path, {{"tag", "v1"}}).ok());
  const std::string bytes = ReadAll(path);

  // Cut just after the second query section: manifest, meta, and the first
  // two query sections survive; the last query's synopsis is gone.
  const std::vector<size_t> boundaries = FrameBoundaries(bytes);
  ASSERT_EQ(boundaries.size(), 7u);
  const std::string cut_path = TempPath("cut");
  WriteAll(cut_path, bytes.substr(0, boundaries[4]));

  // Strict restore refuses the damaged file outright.
  {
    Engine strict;
    EXPECT_FALSE(strict.RestoreCheckpoint(cut_path).ok());
    ExpectEmpty(strict);
  }

  // Partial restore recovers everything that is intact and itemizes the
  // loss: exactly one query, restored empty rather than dropped.
  Engine partial;
  StatusOr<RestoreReport> report =
      partial.RestoreCheckpoint(cut_path, RestoreOptions{.allow_partial = true});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->metadata.at("tag"), "v1");
  ASSERT_EQ(report->lost.size(), 1u);
  EXPECT_EQ(report->lost[0].query, ids.range_sum);
  EXPECT_EQ(partial.num_queries(), 3u);

  // The intact queries answer exactly as in the original engine.
  for (uint64_t v : {0u, 1u, 5u, 40u}) {
    EXPECT_EQ(*partial.AnswerPointFrequency(ids.frequency, v),
              *engine.AnswerPointFrequency(ids.frequency, v));
  }
  EXPECT_EQ(*partial.AnswerQuantile(ids.quantile, 0.5),
            *engine.AnswerQuantile(ids.quantile, 0.5));
  // The lost query still exists and still answers — from an empty synopsis.
  StatusOr<double> empty_sum = partial.AnswerRangeSum(ids.range_sum, 0, 255);
  ASSERT_TRUE(empty_sum.ok());
  EXPECT_EQ(*empty_sum, 0.0);
}

// --- guardrails ------------------------------------------------------------

TEST(CheckpointTest, RestoreRequiresEmptyEngine) {
  Engine engine;
  BuildSmallEngine(&engine);
  const std::string path = TempPath("ckpt");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  Engine occupied;
  ASSERT_TRUE(occupied.RegisterStream({"other", 16}).ok());
  StatusOr<RestoreReport> report = occupied.RestoreCheckpoint(path);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  // The occupied engine was not cleared.
  EXPECT_EQ(occupied.num_streams(), 1u);

  occupied.Clear();
  ExpectEmpty(occupied);
  EXPECT_TRUE(occupied.RestoreCheckpoint(path).ok());
}

TEST(CheckpointTest, StrictRestoreRefusesUnsupportedQueries) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream({"f", 64}).ok());
  JoinQuerySpec sampling;
  sampling.left_stream = "f";
  sampling.right_stream = "f";
  sampling.estimator.kind = core::EstimatorKind::kSampling;
  sampling.estimator.space_counters = 16;
  ASSERT_TRUE(engine.AddJoinQuery(sampling, 5).ok());
  stream::FrequencyVector stats(64);
  for (uint64_t v = 0; v < 64; ++v) stats.Add(v, 1);
  JoinQuerySpec partitioned = sampling;
  partitioned.estimator.kind = core::EstimatorKind::kPartitionedAgms;
  StatusOr<sketch::PartitionPlan> plan =
      sketch::PlanPartitions(stats, stats, 2, 64, 4);
  ASSERT_TRUE(plan.ok()) << plan.status();
  partitioned.estimator.partition_plan =
      std::make_shared<sketch::PartitionPlan>(*std::move(plan));
  ASSERT_TRUE(engine.AddJoinQuery(partitioned, 6).ok());
  const std::string path = TempPath("ckpt");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  Engine strict;
  StatusOr<RestoreReport> report = strict.RestoreCheckpoint(path);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnimplemented);
  ExpectEmpty(strict);

  // Partial restore re-registers the sampling join empty; the partition
  // plan is not in the checkpoint, so the partitioned-AGMS join is dropped.
  // Both losses are reported.
  Engine partial;
  StatusOr<RestoreReport> partial_report =
      partial.RestoreCheckpoint(path, RestoreOptions{.allow_partial = true});
  ASSERT_TRUE(partial_report.ok()) << partial_report.status();
  ASSERT_EQ(partial_report->lost.size(), 2u);
  EXPECT_EQ(partial_report->lost[0].kind, "join");
  EXPECT_NE(partial_report->lost[0].reason.find("re-registered empty"),
            std::string::npos);
  EXPECT_EQ(partial_report->lost[1].kind, "join");
  EXPECT_NE(partial_report->lost[1].reason.find("dropped entirely"),
            std::string::npos);
  EXPECT_EQ(partial.num_queries(), 1u);
}

// Chain joins checkpoint like every other linear synopsis: a strict
// restore brings both chain methods back bit-identically, and they keep
// agreeing as tuples continue to arrive.
TEST(CheckpointTest, StrictRestoreRecoversChainJoins) {
  for (const ChainJoinQuerySpec::Method method :
       {ChainJoinQuerySpec::Method::kAgmsGrid,
        ChainJoinQuerySpec::Method::kHashSketch}) {
    Engine live;
    ASSERT_TRUE(live.RegisterRelation({"r0", 1, 64}).ok());
    ASSERT_TRUE(live.RegisterRelation({"r1", 2, 64}).ok());
    ASSERT_TRUE(live.RegisterRelation({"r2", 1, 64}).ok());
    ChainJoinQuerySpec chain;
    chain.relations = {"r0", "r1", "r2"};
    chain.method = method;
    chain.num_means = 16;
    chain.num_medians = 3;
    StatusOr<QueryId> id = live.AddChainJoinQuery(chain, 5);
    ASSERT_TRUE(id.ok()) << id.status();
    const auto feed = [](Engine* engine, uint64_t from, uint64_t to) {
      for (uint64_t t = from; t < to; ++t) {
        SKIMJOIN_CHECK_OK(engine->UpdateRelation("r0", {t % 64}, 1));
        SKIMJOIN_CHECK_OK(
            engine->UpdateRelation("r1", {t % 64, (t * 7) % 64}, 1));
        SKIMJOIN_CHECK_OK(engine->UpdateRelation("r2", {(t * 7) % 64}, 2));
      }
    };
    feed(&live, 0, 300);
    const std::string path = TempPath("chain");
    ASSERT_TRUE(live.SaveCheckpoint(path).ok());

    Engine restored;
    StatusOr<RestoreReport> report = restored.RestoreCheckpoint(path);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->lost.empty());
    EXPECT_EQ(*restored.AnswerChainJoin(*id), *live.AnswerChainJoin(*id));
    feed(&live, 300, 400);
    feed(&restored, 300, 400);
    EXPECT_EQ(*restored.AnswerChainJoin(*id), *live.AnswerChainJoin(*id));
    EXPECT_NE(*live.AnswerChainJoin(*id), 0.0);
  }
}

// A checkpoint written before chain joins were serializable flags them 0
// and carries no section for them. It still restores exactly as it did:
// strict refuses, partial re-registers the chain empty and reports it.
TEST(CheckpointTest, ChainFlaggedUnsupportedByOlderWritersStillRestores) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream({"s", 256}).ok());
  ASSERT_TRUE(engine.RegisterRelation({"r0", 1, 64}).ok());
  ASSERT_TRUE(engine.RegisterRelation({"r1", 1, 64}).ok());
  FrequencyQuerySpec frequency;
  frequency.stream = "s";
  frequency.space_counters = 64;
  frequency.num_tables = 4;
  frequency.use_dyadic = false;
  StatusOr<QueryId> fq = engine.AddFrequencyQuery(frequency, 3);
  ASSERT_TRUE(fq.ok());
  ChainJoinQuerySpec chain;
  chain.relations = {"r0", "r1"};
  StatusOr<QueryId> cq = engine.AddChainJoinQuery(chain, 4);
  ASSERT_TRUE(cq.ok());
  for (uint64_t v = 0; v < 50; ++v) {
    SKIMJOIN_CHECK_OK(engine.Update("s", StreamUpdate{v % 9, 1, 0}));
    SKIMJOIN_CHECK_OK(engine.UpdateRelation("r0", {v % 5}, 1));
    SKIMJOIN_CHECK_OK(engine.UpdateRelation("r1", {v % 5}, 1));
  }
  const std::string path = TempPath("current");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  // Re-frame it in the older layout: chain line flagged 0, no chain
  // section. Every other byte is what the current writer produced.
  std::map<std::string, std::string> sections = ReadSections(path);
  std::string manifest = sections.at("manifest");
  const std::string chain_line = "\n2 chain 4 1 2 r0 r1 hashsketch";
  const size_t at = manifest.find(chain_line);
  ASSERT_NE(at, std::string::npos) << manifest;
  manifest.replace(at, chain_line.size(), "\n2 chain 4 0 2 r0 r1 hashsketch");
  const std::string older = TempPath("older");
  WriteSections(older, {{"manifest", manifest},
                        {"query:1", sections.at("query:1")}});

  Engine strict;
  StatusOr<RestoreReport> refused = strict.RestoreCheckpoint(older);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnimplemented);
  ExpectEmpty(strict);

  Engine partial;
  StatusOr<RestoreReport> report =
      partial.RestoreCheckpoint(older, RestoreOptions{.allow_partial = true});
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->lost.size(), 1u);
  EXPECT_EQ(report->lost[0].query, *cq);
  EXPECT_EQ(report->lost[0].kind, "chain");
  EXPECT_NE(report->lost[0].reason.find("re-registered empty"),
            std::string::npos);
  EXPECT_EQ(partial.num_queries(), 2u);
  EXPECT_EQ(*partial.AnswerChainJoin(*cq), 0.0);
  for (uint64_t v = 0; v < 9; ++v) {
    EXPECT_EQ(*partial.AnswerPointFrequency(*fq, v),
              *engine.AnswerPointFrequency(*fq, v));
  }
}

// --- manifest format -------------------------------------------------------

// The manifest BuildOnePerKindEngine's checkpoint carries, recorded from
// the writer that predates the shared spec codec. The only line that moved
// is the chain query's supported flag: 0 then, 1 now that chain synopses
// serialize.
constexpr char kGoldenManifest[] = R"(skimjoin.checkpoint v2
shards 1
nextid 11
streams 2
left 1024 40 40 0 0 0 0 0
right%20side%25 1024 40 40 0 0 0 0 0
relations 3
r0 1 64 0
r1 2 64 1
r2 1 64 0
queries 10
1 join 101 1 left right%20side%25 skimmed 512 5 4 0.10000000000000001 0.99999999999999989 4.9406564584124654e-324 1 0 1 pred 3 900 nopred
2 join 102 1 left left agms 100 5 7 2 0.5 0 0 0 0 nopred nopred
3 join 103 0 left left sampling 64 5 7 2 0.5 0 0 0 0 nopred nopred
4 join 104 0 left right%20side%25 partitionedagms 4096 5 7 2 0.5 0 0 0 0 nopred nopred
5 frequency 105 1 left 1000 5 1 pred 0 511
6 distinct 106 1 right%20side%25 16 nopred
7 topk 107 1 left 4 128 4 nopred
8 quantile 0 1 right%20side%25 0.10000000000000001 pred 1 1000
9 rangesum 0 1 left 32 nopred
10 chain 108 1 3 r0 r1 r2 agmsgrid 8 3 5 64
metrics 56
ingest.left.absorb_nanos 0
ingest.left.batches 0
ingest.left.elements_absorbed 40
ingest.left.elements_dropped 0
ingest.left.hash_cache_hits 0
ingest.left.hash_cache_misses 0
ingest.left.merge_nanos 0
ingest.left.merges 0
ingest.right%20side%25.absorb_nanos 0
ingest.right%20side%25.batches 0
ingest.right%20side%25.elements_absorbed 40
ingest.right%20side%25.elements_dropped 0
ingest.right%20side%25.hash_cache_hits 0
ingest.right%20side%25.hash_cache_misses 0
ingest.right%20side%25.merge_nanos 0
ingest.right%20side%25.merges 0
query.1.cache_hits 0
query.1.cache_invalidations 0
query.1.cache_misses 0
query.1.estimate_calls 0
query.10.cache_hits 0
query.10.cache_invalidations 0
query.10.cache_misses 0
query.10.estimate_calls 0
query.2.cache_hits 0
query.2.cache_invalidations 0
query.2.cache_misses 0
query.2.estimate_calls 0
query.3.cache_hits 0
query.3.cache_invalidations 0
query.3.cache_misses 0
query.3.estimate_calls 0
query.4.cache_hits 0
query.4.cache_invalidations 0
query.4.cache_misses 0
query.4.estimate_calls 0
query.5.cache_hits 0
query.5.cache_invalidations 0
query.5.cache_misses 0
query.5.estimate_calls 0
query.6.cache_hits 0
query.6.cache_invalidations 0
query.6.cache_misses 0
query.6.estimate_calls 0
query.7.cache_hits 0
query.7.cache_invalidations 0
query.7.cache_misses 0
query.7.estimate_calls 0
query.8.cache_hits 0
query.8.cache_invalidations 0
query.8.cache_misses 0
query.8.estimate_calls 0
query.9.cache_hits 0
query.9.cache_invalidations 0
query.9.cache_misses 0
query.9.estimate_calls 0
end
)";

TEST(CheckpointFormatTest, ManifestMatchesGolden) {
  Engine engine;
  BuildOnePerKindEngine(&engine);
  const std::string path = TempPath("golden");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  EXPECT_EQ(ReadSections(path).at("manifest"), kGoldenManifest);
}

// Every spec the manifest records comes back through a restore field for
// field — doubles bit-exactly — so a re-save writes the same query lines.
TEST(CheckpointFormatTest, RestoredSpecsRewriteTheSameManifest) {
  Engine engine;
  BuildOnePerKindEngine(&engine);
  const std::string path = TempPath("golden");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  const std::string manifest = ReadSections(path).at("manifest");

  Engine restored;
  StatusOr<RestoreReport> report =
      restored.RestoreCheckpoint(path, RestoreOptions{.allow_partial = true});
  ASSERT_TRUE(report.ok()) << report.status();
  const std::string again = TempPath("again");
  ASSERT_TRUE(restored.SaveCheckpoint(again).ok());

  // The partitioned-AGMS join cannot be re-registered without its plan;
  // everything else, counters included, is rewritten as it was read.
  std::string expected = manifest;
  const size_t dropped = expected.find("4 join 104");
  expected.erase(dropped, expected.find("5 frequency") - dropped);
  expected.replace(expected.find("queries 10"), 10, "queries 9");
  EXPECT_EQ(ReadSections(again).at("manifest"), expected);
}

// --- full round-trip equivalence -------------------------------------------

struct FullIds {
  QueryId skimmed_join = 0;
  QueryId agms_join = 0;
  QueryId hash_join = 0;
  QueryId countmin_join = 0;
  QueryId self_join = 0;
  QueryId sampling_join = 0;
  QueryId frequency = 0;
  QueryId distinct = 0;
  QueryId topk = 0;
  QueryId quantile = 0;
  QueryId range_sum = 0;
  QueryId chain = 0;
};

constexpr uint64_t kDomain = 1u << 10;

FullIds BuildFullEngine(Engine* engine) {
  FullIds ids;
  SKIMJOIN_CHECK_OK(engine->RegisterStream({"left", kDomain}).status());
  SKIMJOIN_CHECK_OK(engine->RegisterStream({"right", kDomain}).status());
  SKIMJOIN_CHECK_OK(engine->RegisterRelation({"r0", 1, 64}).status());
  SKIMJOIN_CHECK_OK(engine->RegisterRelation({"r1", 2, 64}).status());
  SKIMJOIN_CHECK_OK(engine->RegisterRelation({"r2", 1, 64}).status());

  const auto join_with = [&](core::EstimatorKind kind) {
    JoinQuerySpec spec;
    spec.left_stream = "left";
    spec.right_stream = "right";
    spec.estimator.kind = kind;
    spec.estimator.space_counters = 512;
    spec.left_predicate = RangePredicate{0, kDomain - 5};
    auto id = engine->AddJoinQuery(spec, 21);
    SKIMJOIN_CHECK_OK(id.status());
    return *id;
  };
  ids.skimmed_join = join_with(core::EstimatorKind::kSkimmedSketch);
  ids.agms_join = join_with(core::EstimatorKind::kAgms);
  ids.hash_join = join_with(core::EstimatorKind::kHashSketch);
  ids.countmin_join = join_with(core::EstimatorKind::kCountMin);
  ids.sampling_join = join_with(core::EstimatorKind::kSampling);

  SelfJoinQuerySpec self_join;
  self_join.stream = "left";
  self_join.estimator.kind = core::EstimatorKind::kSkimmedSketch;
  self_join.estimator.space_counters = 512;
  auto sj = engine->AddSelfJoinQuery(self_join, 22);
  SKIMJOIN_CHECK_OK(sj.status());
  ids.self_join = *sj;

  FrequencyQuerySpec frequency;
  frequency.stream = "left";
  frequency.space_counters = 1024;
  frequency.num_tables = 4;
  frequency.use_dyadic = true;
  auto fq = engine->AddFrequencyQuery(frequency, 23);
  SKIMJOIN_CHECK_OK(fq.status());
  ids.frequency = *fq;

  DistinctCountQuerySpec distinct;
  distinct.stream = "right";
  distinct.num_maps = 32;
  auto dq = engine->AddDistinctCountQuery(distinct, 24);
  SKIMJOIN_CHECK_OK(dq.status());
  ids.distinct = *dq;

  TopKQuerySpec topk;
  topk.stream = "left";
  topk.k = 8;
  topk.space_counters = 256;
  topk.num_tables = 4;
  auto tq = engine->AddTopKQuery(topk, 25);
  SKIMJOIN_CHECK_OK(tq.status());
  ids.topk = *tq;

  QuantileQuerySpec quantile;
  quantile.stream = "right";
  quantile.epsilon = 0.02;
  quantile.predicate = RangePredicate{1, kDomain - 1};
  auto qq = engine->AddQuantileQuery(quantile);
  SKIMJOIN_CHECK_OK(qq.status());
  ids.quantile = *qq;

  RangeSumQuerySpec range_sum;
  range_sum.stream = "left";
  range_sum.coefficient_budget = 64;
  auto rq = engine->AddRangeSumQuery(range_sum);
  SKIMJOIN_CHECK_OK(rq.status());
  ids.range_sum = *rq;

  ChainJoinQuerySpec chain;
  chain.relations = {"r0", "r1", "r2"};
  chain.method = ChainJoinQuerySpec::Method::kHashSketch;
  auto cq = engine->AddChainJoinQuery(chain, 26);
  SKIMJOIN_CHECK_OK(cq.status());
  ids.chain = *cq;
  return ids;
}

void Feed(Engine* engine, const std::vector<stream::StreamElement>& left,
          const std::vector<stream::StreamElement>& right) {
  for (const stream::StreamElement& e : left) {
    SKIMJOIN_CHECK_OK(engine->Update(
        "left", StreamUpdate{e.value, e.weight, int64_t(e.value % 7)}));
  }
  for (const stream::StreamElement& e : right) {
    SKIMJOIN_CHECK_OK(engine->Update(
        "right", StreamUpdate{e.value, e.weight, int64_t(e.value % 5)}));
  }
}

// Every Answer* of the two engines must agree EXACTLY (bit-identical
// doubles) for the given queries.
void ExpectIdenticalAnswers(Engine& a, Engine& b, const FullIds& ids) {
  EXPECT_EQ(*a.AnswerJoin(ids.skimmed_join), *b.AnswerJoin(ids.skimmed_join));
  EXPECT_EQ(*a.AnswerJoin(ids.agms_join), *b.AnswerJoin(ids.agms_join));
  EXPECT_EQ(*a.AnswerJoin(ids.hash_join), *b.AnswerJoin(ids.hash_join));
  EXPECT_EQ(*a.AnswerJoin(ids.countmin_join), *b.AnswerJoin(ids.countmin_join));
  EXPECT_EQ(*a.AnswerJoin(ids.self_join), *b.AnswerJoin(ids.self_join));
  for (uint64_t v : {0u, 1u, 3u, 17u, 100u, 1000u}) {
    EXPECT_EQ(*a.AnswerPointFrequency(ids.frequency, v),
              *b.AnswerPointFrequency(ids.frequency, v))
        << "value " << v;
  }
  const StatusOr<core::DenseFrequencies> heavy_a =
      a.AnswerHeavyHitters(ids.frequency, 10);
  const StatusOr<core::DenseFrequencies> heavy_b =
      b.AnswerHeavyHitters(ids.frequency, 10);
  ASSERT_TRUE(heavy_a.ok());
  ASSERT_TRUE(heavy_b.ok());
  EXPECT_EQ(*heavy_a, *heavy_b);
  EXPECT_EQ(*a.AnswerDistinctCount(ids.distinct),
            *b.AnswerDistinctCount(ids.distinct));
  EXPECT_EQ(*a.AnswerTopK(ids.topk), *b.AnswerTopK(ids.topk));
  for (double phi : {0.1, 0.25, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(*a.AnswerQuantile(ids.quantile, phi),
              *b.AnswerQuantile(ids.quantile, phi))
        << "phi " << phi;
  }
  EXPECT_EQ(*a.AnswerRangeSum(ids.range_sum, 0, kDomain - 1),
            *b.AnswerRangeSum(ids.range_sum, 0, kDomain - 1));
  EXPECT_EQ(*a.AnswerRangeSum(ids.range_sum, 5, 300),
            *b.AnswerRangeSum(ids.range_sum, 5, 300));
  EXPECT_EQ(*a.AnswerChainJoin(ids.chain), *b.AnswerChainJoin(ids.chain));
  EXPECT_EQ(*a.StreamElementCount("left"), *b.StreamElementCount("left"));
  EXPECT_EQ(*a.StreamElementCount("right"), *b.StreamElementCount("right"));
}

TEST(CheckpointEquivalenceTest, RestoredEngineAnswersBitIdentically) {
  Engine live;
  const FullIds ids = BuildFullEngine(&live);

  Rng rng(99);
  stream::ZipfDistribution zipf(kDomain, 1.0);
  const std::vector<stream::StreamElement> left_prefix =
      zipf.GenerateElements(3000, &rng);
  const std::vector<stream::StreamElement> right_prefix =
      zipf.GenerateElements(3000, &rng);
  Feed(&live, left_prefix, right_prefix);
  for (uint64_t t = 0; t < 200; ++t) {
    SKIMJOIN_CHECK_OK(live.UpdateRelation("r0", {t % 64}, 1));
    SKIMJOIN_CHECK_OK(live.UpdateRelation("r1", {t % 64, (t * 3) % 64}, 1));
    SKIMJOIN_CHECK_OK(live.UpdateRelation("r2", {(t * 3) % 64}, 1));
  }

  const std::string path = TempPath("ckpt");
  ASSERT_TRUE(
      live.SaveCheckpoint(path, {{"build", "test"}, {"epoch", "12"}}).ok());

  Engine restored;
  StatusOr<RestoreReport> report = restored.RestoreCheckpoint(
      path, RestoreOptions{.allow_partial = true});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Exactly the sampling join loses synopsis state — and it is REPORTED,
  // not silently skipped.
  std::set<QueryId> lost;
  for (const RestoreLoss& loss : report->lost) lost.insert(loss.query);
  EXPECT_EQ(lost, (std::set<QueryId>{ids.sampling_join}));
  EXPECT_EQ(report->metadata.at("build"), "test");
  EXPECT_EQ(report->metadata.at("epoch"), "12");
  EXPECT_EQ(restored.num_queries(), live.num_queries());
  EXPECT_EQ(restored.num_streams(), 2u);
  EXPECT_EQ(restored.num_relations(), 3u);

  // Identical right after restore...
  ExpectIdenticalAnswers(live, restored, ids);

  // ...and still identical after both engines ingest the same suffix,
  // including deletes: the restored synopses must CONTINUE exactly.
  std::vector<stream::StreamElement> left_suffix =
      zipf.GenerateElements(1500, &rng);
  std::vector<stream::StreamElement> right_suffix =
      zipf.GenerateElements(1500, &rng);
  for (size_t i = 0; i < left_suffix.size(); i += 10) {
    left_suffix[i].weight = -1;
  }
  Feed(&live, left_suffix, right_suffix);
  Feed(&restored, left_suffix, right_suffix);
  ExpectIdenticalAnswers(live, restored, ids);

  // The ingest statistics carried over and kept counting.
  const StatusOr<ingest::IngestStats> stats_live =
      live.StreamIngestStats("left");
  const StatusOr<ingest::IngestStats> stats_restored =
      restored.StreamIngestStats("left");
  ASSERT_TRUE(stats_live.ok());
  ASSERT_TRUE(stats_restored.ok());
  EXPECT_EQ(stats_live->elements_absorbed, stats_restored->elements_absorbed);

  // A re-checkpoint of the restored engine holds every synopsis the live
  // engine's re-checkpoint holds, byte for byte — the strongest
  // equivalence check available. The sampling join's state was lost, and
  // the manifests legitimately differ in counters such as
  // ingest.<s>.hash_cache_*, so those two sections are left out.
  const std::string live_again = TempPath("live2");
  const std::string restored_again = TempPath("restored2");
  ASSERT_TRUE(live.SaveCheckpoint(live_again).ok());
  ASSERT_TRUE(restored.SaveCheckpoint(restored_again).ok());
  std::map<std::string, std::string> live_sections = ReadSections(live_again);
  std::map<std::string, std::string> restored_sections =
      ReadSections(restored_again);
  for (auto* sections : {&live_sections, &restored_sections}) {
    sections->erase("manifest");
    sections->erase("query:" + std::to_string(ids.sampling_join));
  }
  EXPECT_EQ(live_sections.size(), live.num_queries() - 1);
  for (const auto& [name, payload] : live_sections) {
    EXPECT_EQ(payload, restored_sections[name]) << name;
  }
  EXPECT_EQ(restored_sections.size(), live_sections.size());
}

// The v2 manifest carries a counters-only metrics block: cumulative ingest
// counters AND any embedder-registered counters (e.g. the shell's command
// count) must survive a save/restore cycle.
TEST(CheckpointTest, MetricsCountersRoundTrip) {
  Engine engine;
  ASSERT_TRUE(
      engine.RegisterStream({.name = "f", .domain_size = 256}).ok());
  for (uint64_t v = 0; v < 40; ++v) {
    SKIMJOIN_CHECK_OK(engine.Update("f", {.value = v % 256}));
  }
  engine.metrics_registry().GetCounter("shell.commands")->Increment(17);

  const std::string path = TempPath("metrics");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  Engine restored;
  ASSERT_TRUE(restored.RestoreCheckpoint(path, {}).ok());
  uint64_t shell_commands = 0, absorbed = 0;
  for (const auto& [name, value] : restored.MetricsSnapshot().counters) {
    if (name == "shell.commands") shell_commands = value;
    if (name == "ingest.f.elements_absorbed") absorbed = value;
  }
  EXPECT_EQ(shell_commands, 17u);
  EXPECT_EQ(absorbed, 40u);

  // And the restored counters keep counting from where they left off.
  SKIMJOIN_CHECK_OK(restored.Update("f", {.value = 1}));
  const StatusOr<ingest::IngestStats> stats =
      restored.StreamIngestStats("f");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->elements_absorbed, 41u);
}

}  // namespace
}  // namespace query
}  // namespace skimjoin
