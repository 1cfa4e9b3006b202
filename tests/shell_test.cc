#include "query/shell.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "query/dist_backend.h"
#include "stream/trace_io.h"
#include "util/event_log.h"
#include "util/metrics.h"
#include "util/status.h"

namespace skimjoin {
namespace query {
namespace {

// Executes one line and returns the single response line (without '\n').
std::string Exec(Shell* shell, const std::string& line) {
  std::ostringstream out;
  EXPECT_TRUE(shell->ExecuteLine(line, out));
  std::string text = out.str();
  if (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

// The CLI hangs gauge refreshing for its background metrics writer off
// this hook; Run must fire it after every line, including the last one.
TEST(ShellTest, PostCommandHookFiresAfterEveryLine) {
  Shell shell;
  int fired = 0;
  shell.set_post_command_hook([&fired] { ++fired; });
  std::istringstream script("stream f 64\nupdate f 1\nquit\n");
  std::ostringstream out;
  EXPECT_EQ(shell.Run(script, out), 0);
  EXPECT_EQ(fired, 3);
  shell.set_post_command_hook(nullptr);
  std::istringstream more("count f\n");
  EXPECT_EQ(shell.Run(more, out), 0);
  EXPECT_EQ(fired, 3);
}

TEST(ShellTest, CommentsAndBlankLinesAreSilent) {
  Shell shell;
  std::ostringstream out;
  EXPECT_TRUE(shell.ExecuteLine("", out));
  EXPECT_TRUE(shell.ExecuteLine("# just a comment", out));
  EXPECT_EQ(out.str(), "");
}

TEST(ShellTest, UnknownCommandReportsError) {
  Shell shell;
  EXPECT_EQ(Exec(&shell, "frobnicate 1 2"),
            "error: unknown command: frobnicate (try `help`)");
}

TEST(ShellTest, HelpListsCommands) {
  Shell shell;
  EXPECT_NE(Exec(&shell, "help").find("join"), std::string::npos);
}

TEST(ShellTest, StreamRegistrationAndErrors) {
  Shell shell;
  EXPECT_EQ(Exec(&shell, "stream flows 1024"), "ok");
  EXPECT_NE(Exec(&shell, "stream flows 1024").find("ALREADY_EXISTS"),
            std::string::npos);
  EXPECT_NE(Exec(&shell, "stream"), "ok");  // usage error
}

TEST(ShellTest, JoinQueryEndToEnd) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "stream g 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "join q f g skimmed 2048"), "ok");
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(Exec(&shell, "update f 7"), "ok");
    ASSERT_EQ(Exec(&shell, "update g 7"), "ok");
  }
  const std::string answer = Exec(&shell, "answer q");
  ASSERT_EQ(answer.rfind("ok ", 0), 0u) << answer;
  const double value = std::stod(answer.substr(3));
  EXPECT_NEAR(value, 2500.0, 250.0);
}

TEST(ShellTest, SelfJoinAndMethodParsing) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "selfjoin sq f agms 512"), "ok");
  EXPECT_NE(Exec(&shell, "selfjoin bad f warp-drive 512").find("unknown method"),
            std::string::npos);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(Exec(&shell, "update f 3"), "ok");
  }
  const std::string answer = Exec(&shell, "answer sq");
  ASSERT_EQ(answer.rfind("ok ", 0), 0u);
  EXPECT_NEAR(std::stod(answer.substr(3)), 400.0, 40.0);
}

// A name names one query, whatever its kind: every registration refuses a
// name any kind already holds.
TEST(ShellTest, DuplicateQueryNamesRejected) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "stream g 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "freq q f 2048"), "ok");
  EXPECT_NE(Exec(&shell, "selfjoin q f agms 512").find("already in use"),
            std::string::npos);
  for (const auto& [first, second] :
       std::vector<std::pair<std::string, std::string>>{
           {"topk t f 3 64", "join t f g skimmed 256"},
           {"distinct d f 16", "freq d f 256"},
           {"quantile z f 0.1", "freq z f 256"}}) {
    ASSERT_EQ(Exec(&shell, first), "ok");
    EXPECT_NE(Exec(&shell, second).find("already in use"), std::string::npos)
        << second;
  }
}

// `update` with a count feeds a sampling join that many unit updates; the
// sample covers the whole stream here, so the answer is the exact join.
TEST(ShellTest, SamplingJoinTakesWeightedUpdates) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "stream g 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "join qs f g sampling 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 2 3"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 2 -1"), "ok");
  ASSERT_EQ(Exec(&shell, "update g 2 2"), "ok");
  const std::string answer = Exec(&shell, "answer qs");
  ASSERT_EQ(answer.rfind("ok ", 0), 0u) << answer;
  EXPECT_DOUBLE_EQ(std::stod(answer.substr(3)), 4.0);
}

TEST(ShellTest, UpdateWithCountAndMeasure) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 5 3"), "ok");      // count 3
  ASSERT_EQ(Exec(&shell, "update f 5 -1 0"), "ok");   // delete
  EXPECT_EQ(Exec(&shell, "count f"), "ok 2");
  EXPECT_NE(Exec(&shell, "update f 9999"), "ok");     // out of domain
}

TEST(ShellTest, FrequencyQueryPointAndHeavy) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "freq hh f 4096"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 42 500"), "ok");
  EXPECT_EQ(Exec(&shell, "point hh 42"), "ok 500");
  EXPECT_EQ(Exec(&shell, "heavy hh 100"), "ok 42:500");
  EXPECT_NE(Exec(&shell, "point nope 42"), "ok 500");
}

TEST(ShellTest, DistinctQuery) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 4096"), "ok");
  ASSERT_EQ(Exec(&shell, "distinct d f 256"), "ok");
  for (int v = 0; v < 1000; ++v) {
    ASSERT_EQ(Exec(&shell, "update f " + std::to_string(v)), "ok");
  }
  const std::string answer = Exec(&shell, "answer d");
  ASSERT_EQ(answer.rfind("ok ", 0), 0u);
  const double distinct = std::stod(answer.substr(3));
  EXPECT_GT(distinct, 400.0);
  EXPECT_LT(distinct, 2500.0);
}

TEST(ShellTest, TopKQueryEndToEnd) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "topk t f 2 4096"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 10 300"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 20 200"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 30 100"), "ok");
  EXPECT_EQ(Exec(&shell, "top t"), "ok 10:300 20:200");
  EXPECT_NE(Exec(&shell, "top nope"), "ok");
  EXPECT_NE(Exec(&shell, "topk t f 2 4096"), "ok");  // duplicate name
}

TEST(ShellTest, QuantileQueryEndToEnd) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 4096"), "ok");
  ASSERT_EQ(Exec(&shell, "quantile q f 0.05"), "ok");
  for (uint64_t v = 0; v < 1000; ++v) {
    ASSERT_EQ(Exec(&shell, "update f " + std::to_string(v)), "ok");
  }
  const std::string answer = Exec(&shell, "phi q 0.5");
  ASSERT_EQ(answer.rfind("ok ", 0), 0u) << answer;
  const double median = std::stod(answer.substr(3));
  EXPECT_NEAR(median, 500.0, 110.0);
  EXPECT_NE(Exec(&shell, "phi nope 0.5"), answer);
  EXPECT_NE(Exec(&shell, "quantile bad f 0.9"), "ok");  // epsilon too large
}

TEST(ShellTest, LoadReplaysTraceFiles) {
  const std::string path = ::testing::TempDir() + "/shell.trace";
  ASSERT_TRUE(stream::WriteTrace(path, {stream::Insert(1), stream::Insert(1),
                                        stream::Delete(1), stream::Insert(2)})
                  .ok());
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 16"), "ok");
  EXPECT_EQ(Exec(&shell, "load f " + path), "ok 4");
  EXPECT_EQ(Exec(&shell, "count f"), "ok 2");
  EXPECT_NE(Exec(&shell, "load f /no/such/file"), "ok");
  std::remove(path.c_str());
}

// A trace is one batch: an out-of-domain value is dropped and counted, and
// the elements before and after it still load.
TEST(ShellTest, LoadDropsOutOfDomainValuesAndReportsThem) {
  const std::string path = ::testing::TempDir() + "/shell_drop.trace";
  ASSERT_TRUE(stream::WriteTrace(path, {stream::Insert(1), stream::Insert(99),
                                        stream::Insert(2), stream::Insert(3)})
                  .ok());
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 16"), "ok");
  ASSERT_EQ(Exec(&shell, "freq q f 256"), "ok");
  EXPECT_EQ(Exec(&shell, "load f " + path), "ok 3 dropped=1");
  EXPECT_EQ(Exec(&shell, "count f"), "ok 3");
  EXPECT_EQ(Exec(&shell, "point q 3"), "ok 1");
  EXPECT_EQ(Exec(&shell, "load g " + path).rfind("error: NOT_FOUND", 0), 0u);
  std::remove(path.c_str());
}

TEST(ShellTest, RunProcessesScriptsAndCountsErrors) {
  std::istringstream script(
      "stream f 64\n"
      "stream f 64\n"      // duplicate → error
      "update f 3\n"
      "bogus\n"            // error
      "count f\n"
      "quit\n"
      "update f 3\n");     // after quit: never executed
  std::ostringstream out;
  Shell shell;
  EXPECT_EQ(shell.Run(script, out), 2);
  const std::string text = out.str();
  EXPECT_NE(text.find("ok 1"), std::string::npos);
  // The post-quit update must not have run.
  EXPECT_EQ(*shell.engine().StreamElementCount("f"), 1);
}

TEST(ShellTest, CheckpointRestoreRoundTripKeepsNamesAndAnswers) {
  const std::string path = ::testing::TempDir() + "/shell.ckpt";
  Shell saver;
  ASSERT_EQ(Exec(&saver, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&saver, "freq hh f 4096"), "ok");
  ASSERT_EQ(Exec(&saver, "quantile med f 0.05"), "ok");
  for (uint64_t v = 0; v < 500; ++v) {
    ASSERT_EQ(Exec(&saver, "update f " + std::to_string(v % 64)), "ok");
  }
  ASSERT_EQ(Exec(&saver, "checkpoint " + path), "ok");

  Shell restorer;
  ASSERT_EQ(Exec(&restorer, "restore " + path), "ok");
  // Query names survive via checkpoint metadata, and answers are identical.
  EXPECT_EQ(Exec(&restorer, "count f"), Exec(&saver, "count f"));
  EXPECT_EQ(Exec(&restorer, "point hh 7"), Exec(&saver, "point hh 7"));
  EXPECT_EQ(Exec(&restorer, "phi med 0.5"), Exec(&saver, "phi med 0.5"));
  // Restored shells keep working: the stream accepts further updates.
  EXPECT_EQ(Exec(&restorer, "update f 7"), "ok");
  std::remove(path.c_str());
}

TEST(ShellTest, RestoreRefusesOccupiedShellAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/shell-occupied.ckpt";
  Shell saver;
  ASSERT_EQ(Exec(&saver, "stream f 64"), "ok");
  ASSERT_EQ(Exec(&saver, "checkpoint " + path), "ok");
  // A shell that has registered anything cannot restore in place.
  EXPECT_NE(Exec(&saver, "restore " + path).find("FAILED_PRECONDITION"),
            std::string::npos);
  Shell fresh;
  EXPECT_NE(Exec(&fresh, "restore /no/such/file.ckpt"), "ok");
  EXPECT_NE(Exec(&fresh, "restore " + path + " sloppy"), "ok");  // bad mode
  std::remove(path.c_str());
}

TEST(ShellTest, PartialRestoreReportsUnsupportedQueries) {
  const std::string path = ::testing::TempDir() + "/shell-partial.ckpt";
  Shell saver;
  ASSERT_EQ(Exec(&saver, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&saver, "stream g 1024"), "ok");
  // Sampling joins have no serializable synopsis: strict restore refuses the
  // checkpoint, `restore ... partial` re-registers the query empty.
  ASSERT_EQ(Exec(&saver, "join sj f g sampling 2048"), "ok");
  ASSERT_EQ(Exec(&saver, "checkpoint " + path), "ok");

  Shell strict;
  EXPECT_NE(Exec(&strict, "restore " + path).find("UNIMPLEMENTED"),
            std::string::npos);
  Shell partial;
  EXPECT_EQ(Exec(&partial, "restore " + path + " partial"), "ok lost 1");
  // The name still resolves; the re-registered query answers from scratch.
  EXPECT_EQ(Exec(&partial, "answer sj").rfind("ok ", 0), 0u);
  std::remove(path.c_str());
}

TEST(ShellTest, SeedChangesQueryRandomness) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "seed 12345"), "ok");
  ASSERT_EQ(Exec(&shell, "stream f 64"), "ok");
  ASSERT_EQ(Exec(&shell, "selfjoin q f skimmed 1024"), "ok");
  EXPECT_NE(Exec(&shell, "seed"), "ok");  // usage error
}

TEST(ShellTest, StreamsReportsPerStreamIngestStats) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "stream g 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 7 3"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 9"), "ok");
  const std::string response = Exec(&shell, "streams");
  EXPECT_EQ(response.rfind("ok ", 0), 0u) << response;
  EXPECT_NE(response.find("f:count=4,absorbed=2,dropped=0,batches=0,"
                          "merges=0,absorb_nanos="),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("g:count=0,absorbed=0"), std::string::npos)
      << response;
  EXPECT_NE(response.find("merge_nanos="), std::string::npos) << response;
}

TEST(ShellTest, StatsReportsEngineTotals) {
  Shell shell;
  EXPECT_EQ(Exec(&shell, "stats"),
            "ok streams=0 relations=0 queries=0 absorbed=0 dropped=0 "
            "batches=0 merges=0");
  ASSERT_EQ(Exec(&shell, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "selfjoin q f agms 512"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 7"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 8"), "ok");
  EXPECT_EQ(Exec(&shell, "stats"),
            "ok streams=1 relations=0 queries=1 absorbed=2 dropped=0 "
            "batches=0 merges=0");
}

TEST(ShellTest, MetricsJsonIsOneLine) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 64"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 3"), "ok");
  const std::string response = Exec(&shell, "metrics");
  EXPECT_EQ(response.rfind("ok {", 0), 0u) << response;
  EXPECT_EQ(response.find('\n'), std::string::npos) << response;
  EXPECT_NE(response.find("\"ingest.f.elements_absorbed\":1"),
            std::string::npos)
      << response;
  // Explicit `json` is the same as the default.
  EXPECT_EQ(Exec(&shell, "metrics json").rfind("ok {", 0), 0u);
  EXPECT_NE(Exec(&shell, "metrics xml"), "ok");  // usage error
}

TEST(ShellTest, MetricsPromIsMultiLine) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 64"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 3"), "ok");
  std::ostringstream out;
  EXPECT_TRUE(shell.ExecuteLine("metrics prom", out));
  const std::string response = out.str();
  EXPECT_EQ(response.rfind("ok\n", 0), 0u) << response;
  EXPECT_NE(response.find("# TYPE ingest_f_elements_absorbed counter\n"
                          "ingest_f_elements_absorbed 1\n"),
            std::string::npos)
      << response;
}

TEST(ShellTest, HelpMentionsObservabilityCommands) {
  Shell shell;
  const std::string help = Exec(&shell, "help");
  EXPECT_NE(help.find("streams"), std::string::npos);
  EXPECT_NE(help.find("stats"), std::string::npos);
  EXPECT_NE(help.find("metrics"), std::string::npos);
}

// The registry is the single source of truth for `help`: every registered
// command must appear in the help output, and every registered name must be
// accepted by the dispatcher (no "unknown command" for a listed name).
TEST(ShellTest, HelpListsEveryRegisteredCommand) {
  Shell shell;
  std::ostringstream out;
  EXPECT_TRUE(shell.ExecuteLine("help", out));
  const std::string help = out.str();
  EXPECT_EQ(help.rfind("ok\n", 0), 0u) << help;
  ASSERT_FALSE(Shell::CommandHelp().empty());
  for (const auto& [name, synopsis] : Shell::CommandHelp()) {
    EXPECT_NE(help.find(synopsis), std::string::npos)
        << "help output is missing the synopsis for `" << name << "`";
    // Every synopsis leads with its command name.
    EXPECT_EQ(synopsis.rfind(name, 0), 0u) << synopsis;
  }
  // The key commands of every PR so far are registered.
  std::vector<std::string> names;
  for (const auto& [name, synopsis] : Shell::CommandHelp()) {
    names.push_back(name);
  }
  for (const char* expected :
       {"stream", "join", "selfjoin", "update", "answer", "checkpoint",
        "restore", "metrics", "explain", "logs", "alerts", "help", "quit"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "command registry is missing `" << expected << "`";
  }
}

TEST(ShellTest, EveryRegisteredCommandIsDispatched) {
  for (const auto& [name, synopsis] : Shell::CommandHelp()) {
    Shell shell;  // fresh shell per command: `quit` ends a session
    std::ostringstream out;
    shell.ExecuteLine(name, out);
    EXPECT_EQ(out.str().find("unknown command"), std::string::npos)
        << "`" << name << "` is in the registry but not dispatched: "
        << out.str();
  }
}

TEST(ShellTest, ExplainRendersProvenanceTable) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "stream g 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "join q f g skimmed 2048"), "ok");
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(Exec(&shell, "update f " + std::to_string(i % 10)), "ok");
    ASSERT_EQ(Exec(&shell, "update g " + std::to_string(i % 10)), "ok");
  }
  std::ostringstream out;
  EXPECT_TRUE(shell.ExecuteLine("explain q", out));
  const std::string response = out.str();
  EXPECT_EQ(response.rfind("ok\n", 0), 0u) << response;
  EXPECT_NE(response.find("estimate report [skimmed]"), std::string::npos)
      << response;
  EXPECT_NE(response.find("ci_lower"), std::string::npos);
  EXPECT_NE(response.find("skim.dense_count_f"), std::string::npos);
  // The table's estimate agrees with the one-line answer path.
  const std::string answer = Exec(&shell, "answer q");
  EXPECT_EQ(answer.rfind("ok ", 0), 0u);

  EXPECT_NE(Exec(&shell, "explain nope"), "ok");
  EXPECT_NE(Exec(&shell, "explain"), "ok");  // usage error
}

TEST(ShellTest, ExplainCoversSelfJoinQueries) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "selfjoin sq f agms 512"), "ok");
  for (int i = 0; i < 20; ++i) ASSERT_EQ(Exec(&shell, "update f 3"), "ok");
  std::ostringstream out;
  EXPECT_TRUE(shell.ExecuteLine("explain sq", out));
  EXPECT_NE(out.str().find("estimate report [agms]"), std::string::npos)
      << out.str();
}

TEST(ShellTest, LogsCommandSurfacesEventRing) {
  EventLog::Global().Clear();
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "stream g 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "join q f g agms 512"), "ok");
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(Exec(&shell, "update f " + std::to_string(i % 8)), "ok");
    ASSERT_EQ(Exec(&shell, "update g " + std::to_string((i + 3) % 8)), "ok");
  }
  // Empty ring: "ok 0" and nothing else.
  EXPECT_EQ(Exec(&shell, "logs"), "ok 0");

  // Drive a ci_blowup event end-to-end: zero threshold, then a report-path
  // answer (`explain` — the plain `answer` path computes no CI).
  ASSERT_EQ(Exec(&shell, "alerts inf 0"), "ok");
  ASSERT_EQ(Exec(&shell, "explain q").rfind("ok", 0), 0u);
  std::ostringstream out;
  EXPECT_TRUE(shell.ExecuteLine("logs 5", out));
  const std::string response = out.str();
  EXPECT_EQ(response.rfind("ok 1\n", 0), 0u) << response;
  EXPECT_NE(response.find("\"event\":\"ci_blowup\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"level\":\"warn\""), std::string::npos);

  // `alerts inf inf` disables both monitors again.
  ASSERT_EQ(Exec(&shell, "alerts inf inf"), "ok");
  ASSERT_EQ(Exec(&shell, "explain q").rfind("ok", 0), 0u);
  EXPECT_EQ(Exec(&shell, "logs").rfind("ok 1", 0), 0u);

  EXPECT_NE(Exec(&shell, "logs nope"), "ok 1");   // usage error
  EXPECT_NE(Exec(&shell, "alerts 0.5"), "ok");    // usage error
  EXPECT_NE(Exec(&shell, "alerts a b"), "ok");    // usage error
  EventLog::Global().Clear();
}

// CLI --explain parity: with always-explain enabled, `answer` on a join
// query prints the one-line answer and then the same provenance table.
TEST(ShellTest, AlwaysExplainAnswersWithTable) {
  Shell shell;
  shell.set_always_explain(true);
  ASSERT_EQ(Exec(&shell, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "stream g 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "join q f g hash-sketch 1024"), "ok");
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(Exec(&shell, "update f 5"), "ok");
    ASSERT_EQ(Exec(&shell, "update g 5"), "ok");
  }
  std::ostringstream out;
  EXPECT_TRUE(shell.ExecuteLine("answer q", out));
  const std::string response = out.str();
  EXPECT_EQ(response.rfind("ok ", 0), 0u) << response;
  EXPECT_NE(response.find("estimate report [hash-sketch]"), std::string::npos)
      << response;
  // The first line's value is the report's estimate (bit-identical paths).
  const double value = std::stod(response.substr(3));
  EXPECT_NEAR(value, 400.0, 40.0);
}

// ---- logs level filter -------------------------------------------------

TEST(ShellTest, LogsLevelFilterSelectsAtOrAboveLevel) {
  EventLog::Global().Clear();
  Shell shell;
  EventLog::Global().Emit(LogLevel::kDebug, "dbg_event", {});
  EventLog::Global().Emit(LogLevel::kInfo, "info_event", {});
  EventLog::Global().Emit(LogLevel::kWarn, "warn_event", {});
  EventLog::Global().Emit(LogLevel::kError, "error_event", {});

  // `logs warn` keeps warn and error only.
  std::ostringstream out;
  EXPECT_TRUE(shell.ExecuteLine("logs warn", out));
  std::string response = out.str();
  EXPECT_EQ(response.rfind("ok 2\n", 0), 0u) << response;
  EXPECT_NE(response.find("warn_event"), std::string::npos);
  EXPECT_NE(response.find("error_event"), std::string::npos);
  EXPECT_EQ(response.find("info_event"), std::string::npos);

  // Count applies AFTER the filter: the 1 most recent warn-or-worse event.
  out.str("");
  EXPECT_TRUE(shell.ExecuteLine("logs 1 warn", out));
  response = out.str();
  EXPECT_EQ(response.rfind("ok 1\n", 0), 0u) << response;
  EXPECT_NE(response.find("error_event"), std::string::npos);
  EXPECT_EQ(response.find("warn_event"), std::string::npos);

  // Count and level tokens are accepted in either order.
  out.str("");
  EXPECT_TRUE(shell.ExecuteLine("logs error 3", out));
  EXPECT_EQ(out.str().rfind("ok 1\n", 0), 0u) << out.str();

  // `logs debug` sees everything.
  out.str("");
  EXPECT_TRUE(shell.ExecuteLine("logs debug", out));
  EXPECT_EQ(out.str().rfind("ok 4\n", 0), 0u) << out.str();

  // Usage errors: two counts, two levels, junk token.
  EXPECT_EQ(Exec(&shell, "logs 1 2").rfind("error:", 0), 0u);
  EXPECT_EQ(Exec(&shell, "logs warn info").rfind("error:", 0), 0u);
  EXPECT_EQ(Exec(&shell, "logs loud").rfind("error:", 0), 0u);
  EventLog::Global().Clear();
}

// ---- distributed backend dispatch --------------------------------------

// Engine-free DistBackend double: canned statuses, counts calls. Lets the
// shell's dist dispatch be tested without sockets or worker processes.
class FakeDistBackend : public DistBackend {
 public:
  Status RegisterStream(const StreamSpec&) override { return OkStatus(); }
  StatusOr<QueryId> AddQuery(const QuerySpec&, uint64_t) override {
    return QueryId{7};
  }
  Status Update(const std::string&, const StreamUpdate&) override {
    ++updates;
    return OkStatus();
  }
  Status UpdateBatch(const std::string&,
                     std::span<const StreamUpdate> batch) override {
    updates += static_cast<int>(batch.size());
    return OkStatus();
  }
  StatusOr<double> AnswerJoin(QueryId) override { return 42.0; }
  StatusOr<EstimateReport> AnswerJoinWithReport(QueryId) override {
    EstimateReport report;
    report.estimate = 42.0;
    return report;
  }
  StatusOr<int64_t> AnswerPointFrequency(QueryId, uint64_t) override {
    return 5;
  }
  Status CheckpointShards() override {
    ++checkpoints;
    return OkStatus();
  }
  Status ProbeHealth() override {
    ++probes;
    return OkStatus();
  }
  std::vector<DistShardStatus> ShardStatuses() override {
    DistShardStatus s0;
    s0.shard = "s0";
    s0.health = "healthy";
    s0.incarnation = 1;
    s0.last_acked_epoch = 3;
    DistShardStatus s1;
    s1.shard = "s1";
    s1.health = "down";
    s1.rpc_failures = 2;
    return {s0, s1};
  }
  uint64_t NumShards() const override { return 2; }

  int updates = 0;
  int checkpoints = 0;
  int probes = 0;
};

TEST(ShellTest, WorkersAndShardsRequireABackend) {
  Shell shell;
  EXPECT_EQ(Exec(&shell, "workers"), "error: no distributed backend attached");
  EXPECT_EQ(Exec(&shell, "shards"), "error: no distributed backend attached");
}

TEST(ShellTest, DistBackendRoutesCommandsAndRendersFleet) {
  FakeDistBackend backend;
  Shell shell;
  shell.set_dist_backend(&backend);

  ASSERT_EQ(Exec(&shell, "stream f 1024"), "ok");
  ASSERT_EQ(Exec(&shell, "join q f f agms 64"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 3"), "ok");
  EXPECT_EQ(backend.updates, 1);
  EXPECT_EQ(Exec(&shell, "answer q"), "ok 42");
  ASSERT_EQ(Exec(&shell, "checkpoint ignored-path"), "ok");
  EXPECT_EQ(backend.checkpoints, 1);

  const std::string workers = Exec(&shell, "workers");
  EXPECT_EQ(backend.probes, 1);
  EXPECT_EQ(workers.rfind("ok 2\n", 0), 0u) << workers;
  EXPECT_NE(workers.find("s0 health=healthy incarnation=1 epoch=3"),
            std::string::npos)
      << workers;
  EXPECT_NE(workers.find("s1 health=down"), std::string::npos) << workers;
  EXPECT_EQ(Exec(&shell, "shards"), "ok 2 routing=value%2 s0 s1");

  // Local-only commands must error, not silently act on the empty engine.
  for (const char* line :
       {"distinct d f 256", "topk t f 4", "count f", "streams", "stats",
        "load f /dev/null", "restore /tmp/x", "cache on"}) {
    const std::string response = Exec(&shell, line);
    EXPECT_EQ(response.rfind("error:", 0), 0u) << line << " -> " << response;
    EXPECT_NE(response.find("not supported with a distributed backend"),
              std::string::npos)
        << line << " -> " << response;
  }

  // Detaching restores the local engine path.
  shell.set_dist_backend(nullptr);
  EXPECT_EQ(Exec(&shell, "streams").rfind("ok", 0), 0u);
}

// ---- fleet telemetry commands ------------------------------------------

// FakeDistBackend inherits the default (kUnimplemented) fleet virtuals, so
// it stands in for a backend predating the telemetry plane; these doubles
// layer the new surface on top of it.

// Fleet-capable double: canned merged snapshot, scrape that re-emits one
// tagged event, recorded tracing toggles, canned merged trace.
class FleetFakeBackend : public FakeDistBackend {
 public:
  StatusOr<metrics::Snapshot> FleetMetricsSnapshot() override {
    // Name-sorted, like a real Registry::TakeSnapshot merge.
    metrics::Snapshot snapshot;
    snapshot.counters.emplace_back("dist.batches_routed", 9);
    snapshot.counters.emplace_back(
        metrics::LabeledName("ingest.f.elements_absorbed", {{"shard", "0"}}),
        3);
    snapshot.counters.emplace_back(
        metrics::LabeledName("ingest.f.elements_absorbed", {{"shard", "1"}}),
        4);
    return snapshot;
  }
  Status ScrapeFleetEvents() override {
    ++scrapes;
    EventLog::Global().Emit(LogLevel::kInfo, "fleet_probe",
                            {{"origin_shard", "1"}, {"origin_seq", "17"}});
    return OkStatus();
  }
  Status SetFleetTracing(bool enable) override {
    tracing = enable;
    return OkStatus();
  }
  StatusOr<std::string> DumpFleetTrace() override {
    return std::string(R"({"traceEvents":[{"name":"fleet_span"}]})");
  }

  int scrapes = 0;
  bool tracing = false;
};

// Has a coordinator-local registry but no fleet path: `metrics` must fall
// back to it with the banner.
class LocalRegistryBackend : public FakeDistBackend {
 public:
  LocalRegistryBackend() { registry_.GetCounter("dist.rpc.sent")->Increment(3); }
  metrics::Registry* MetricsRegistry() override { return &registry_; }

 private:
  metrics::Registry registry_;
};

class ScrapeFailsBackend : public FleetFakeBackend {
 public:
  Status ScrapeFleetEvents() override { return InternalError("s1 hung up"); }
};

TEST(ShellTest, FleetRequiresABackendAndToleratesMissingScrape) {
  Shell shell;
  EXPECT_EQ(Exec(&shell, "fleet"), "error: no distributed backend attached");

  // A pre-telemetry backend: kUnimplemented scrape is expected, NOT flagged
  // as incomplete — only real scrape failures earn the suffix.
  FakeDistBackend backend;
  shell.set_dist_backend(&backend);
  const std::string fleet = Exec(&shell, "fleet");
  EXPECT_EQ(backend.probes, 1);
  EXPECT_EQ(fleet.rfind("ok 2 shards\n", 0), 0u) << fleet;
  EXPECT_EQ(fleet.find("event scrape incomplete"), std::string::npos) << fleet;
  EXPECT_NE(fleet.find("s0 health=healthy incarnation=1 epoch=3"),
            std::string::npos)
      << fleet;
  EXPECT_NE(fleet.find("s1 health=down"), std::string::npos) << fleet;

  ScrapeFailsBackend failing;
  shell.set_dist_backend(&failing);
  const std::string incomplete = Exec(&shell, "fleet");
  EXPECT_EQ(incomplete.rfind("ok 2 shards (event scrape incomplete)\n", 0), 0u)
      << incomplete;
}

TEST(ShellTest, FleetScrapesEventsIntoTheLocalLog) {
  EventLog::Global().Clear();
  FleetFakeBackend backend;
  Shell shell;
  shell.set_dist_backend(&backend);
  const std::string fleet = Exec(&shell, "fleet");
  EXPECT_EQ(fleet.rfind("ok 2 shards\n", 0), 0u) << fleet;
  EXPECT_EQ(backend.probes, 1);
  EXPECT_EQ(backend.scrapes, 1);

  // The scraped event is now in the local log, findable by shard.
  std::ostringstream out;
  EXPECT_TRUE(shell.ExecuteLine("logs --shard 1", out));
  EXPECT_EQ(backend.scrapes, 2);  // `logs --shard` refreshes first
  const std::string logs = out.str();
  EXPECT_EQ(logs.rfind("ok 2\n", 0), 0u) << logs;
  EXPECT_NE(logs.find("fleet_probe"), std::string::npos) << logs;
  EXPECT_NE(logs.find("\"origin_shard\":\"1\""), std::string::npos) << logs;
  EventLog::Global().Clear();
}

TEST(ShellTest, LogsShardFilterKeepsOnlyThatShardsEvents) {
  EventLog::Global().Clear();
  FleetFakeBackend backend;
  Shell shell;
  shell.set_dist_backend(&backend);
  EventLog::Global().Emit(LogLevel::kInfo, "local_event", {{"src", "coord"}});

  std::ostringstream out;
  EXPECT_TRUE(shell.ExecuteLine("logs --shard 1", out));
  EXPECT_EQ(out.str().rfind("ok 1\n", 0), 0u) << out.str();
  EXPECT_NE(out.str().find("fleet_probe"), std::string::npos) << out.str();
  EXPECT_EQ(out.str().find("local_event"), std::string::npos) << out.str();

  // No events carry origin_shard=0; the local event must not leak through.
  EXPECT_EQ(Exec(&shell, "logs --shard 0"), "ok 0");

  // Usage errors: duplicate flag, missing value.
  EXPECT_EQ(Exec(&shell, "logs --shard 1 --shard 2").rfind("error:", 0), 0u);
  EXPECT_EQ(Exec(&shell, "logs --shard").rfind("error:", 0), 0u);
  EventLog::Global().Clear();
}

TEST(ShellTest, TraceCommandsDriveTheLocalRecorderWithoutABackend) {
  metrics::TraceRecorder::Global().Disable();
  (void)metrics::TraceRecorder::Global().DrainAsChromeTrace();  // start clean
  Shell shell;
  EXPECT_EQ(Exec(&shell, "trace start"), "ok");
  { metrics::TraceSpan span("shell_test.local_span", "test"); }
  const std::string path = ::testing::TempDir() + "/shell-local.trace.json";
  const std::string dump = Exec(&shell, "trace dump " + path);
  EXPECT_EQ(dump.rfind("ok ", 0), 0u) << dump;
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("shell_test.local_span"), std::string::npos)
      << content.str();
  EXPECT_EQ(Exec(&shell, "trace stop"), "ok");

  EXPECT_EQ(Exec(&shell, "trace"), "error: usage: trace start|stop|dump <file>");
  EXPECT_EQ(Exec(&shell, "trace dump"), "error: usage: trace dump <file>");
  EXPECT_EQ(Exec(&shell, "trace bounce").rfind("error: usage:", 0), 0u);
  std::remove(path.c_str());
}

TEST(ShellTest, TraceCommandsRouteToTheFleetWithABackend) {
  FleetFakeBackend backend;
  Shell shell;
  shell.set_dist_backend(&backend);
  EXPECT_EQ(Exec(&shell, "trace start"), "ok");
  EXPECT_TRUE(backend.tracing);
  EXPECT_EQ(Exec(&shell, "trace stop"), "ok");
  EXPECT_FALSE(backend.tracing);

  const std::string path = ::testing::TempDir() + "/shell-fleet.trace.json";
  const std::string dump = Exec(&shell, "trace dump " + path);
  EXPECT_EQ(dump.rfind("ok ", 0), 0u) << dump;
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("fleet_span"), std::string::npos)
      << content.str();
  std::remove(path.c_str());

  // A backend without fleet tracing surfaces the error instead of silently
  // toggling only the local recorder.
  FakeDistBackend legacy;
  shell.set_dist_backend(&legacy);
  const std::string response = Exec(&shell, "trace start");
  EXPECT_EQ(response.rfind("error:", 0), 0u) << response;
  EXPECT_NE(response.find("fleet tracing"), std::string::npos) << response;
}

TEST(ShellTest, MetricsRoutesToTheFleetSnapshotInDistMode) {
  FleetFakeBackend backend;
  Shell shell;
  shell.set_dist_backend(&backend);

  // Bare `metrics` means the fleet in dist mode — no banner.
  const std::string json = Exec(&shell, "metrics");
  EXPECT_EQ(json.rfind("ok ", 0), 0u) << json;
  EXPECT_NE(json.find("\"fleet\""), std::string::npos) << json;
  EXPECT_EQ(json.find("coordinator-local"), std::string::npos) << json;

  const std::string prom = Exec(&shell, "metrics fleet prom");
  EXPECT_EQ(prom.rfind("ok\n", 0), 0u) << prom;
  EXPECT_NE(prom.find("ingest_f_elements_absorbed{shard=\"0\"} 3"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("ingest_f_elements_absorbed{shard=\"1\"} 4"),
            std::string::npos)
      << prom;
}

TEST(ShellTest, MetricsFallsBackToCoordinatorLocalWithABanner) {
  LocalRegistryBackend backend;
  Shell shell;
  shell.set_dist_backend(&backend);

  const std::string fallback = Exec(&shell, "metrics");
  EXPECT_EQ(fallback.rfind("ok ", 0), 0u) << fallback;
  EXPECT_NE(fallback.find("(coordinator-local; use 'metrics fleet')"),
            std::string::npos)
      << fallback;
  EXPECT_NE(fallback.find("dist.rpc.sent"), std::string::npos) << fallback;

  const std::string prom = Exec(&shell, "metrics prom");
  EXPECT_NE(prom.find("# (coordinator-local; use 'metrics fleet')"),
            std::string::npos)
      << prom;

  // Explicitly asking for the fleet must error, not silently downgrade.
  EXPECT_EQ(Exec(&shell, "metrics fleet").rfind("error:", 0), 0u);

  // Backend exposing neither a fleet path nor a registry: a plain error.
  FakeDistBackend bare;
  shell.set_dist_backend(&bare);
  EXPECT_EQ(Exec(&shell, "metrics"),
            "error: the attached distributed backend exposes no metrics");

  // `metrics fleet` without any backend at all.
  shell.set_dist_backend(nullptr);
  EXPECT_EQ(Exec(&shell, "metrics fleet"),
            "error: no distributed backend attached");
}

// ---- logs --shard composed with the level filter -----------------------

// Satellite pin: `logs --shard <k>` and a level token compose in either
// token order.
TEST(ShellTest, LogsShardFilterComposesWithLevelInEitherOrder) {
  EventLog::Global().Clear();
  FleetFakeBackend backend;
  Shell shell;
  shell.set_dist_backend(&backend);
  EventLog::Global().Emit(LogLevel::kWarn, "victim_warn",
                          {{"origin_shard", "1"}, {"origin_seq", "18"}});
  EventLog::Global().Emit(LogLevel::kWarn, "bystander_warn",
                          {{"origin_shard", "0"}, {"origin_seq", "4"}});

  for (const char* line : {"logs --shard 1 warn", "logs warn --shard 1"}) {
    std::ostringstream out;
    EXPECT_TRUE(shell.ExecuteLine(line, out));
    const std::string logs = out.str();
    EXPECT_EQ(logs.rfind("ok 1\n", 0), 0u) << line << " -> " << logs;
    EXPECT_NE(logs.find("victim_warn"), std::string::npos) << line;
    // The refresh scrape's info-level fleet_probe is filtered by `warn`,
    // shard 0's warn by the shard filter.
    EXPECT_EQ(logs.find("fleet_probe"), std::string::npos) << line;
    EXPECT_EQ(logs.find("bystander_warn"), std::string::npos) << line;
  }
  EventLog::Global().Clear();
}

// ---- health & doctor ----------------------------------------------------

TEST(ShellTest, HealthRendersReportDoctorRendersFindings) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 2048"), "ok");
  ASSERT_EQ(Exec(&shell, "stream g 2048"), "ok");
  ASSERT_EQ(Exec(&shell, "join q f g hash-sketch 64"), "ok");
  for (uint64_t value = 0; value < 2048; ++value) {
    ASSERT_EQ(Exec(&shell, "update f " + std::to_string(value)), "ok");
    ASSERT_EQ(Exec(&shell, "update g " + std::to_string(value)), "ok");
  }

  const std::string health = Exec(&shell, "health");
  EXPECT_EQ(health.rfind("ok\n", 0), 0u) << health;
  EXPECT_NE(health.find("stream health"), std::string::npos) << health;
  EXPECT_NE(health.find("synopsis health"), std::string::npos) << health;
  EXPECT_NE(health.find("collision-pressure"), std::string::npos) << health;

  const std::string doctor = Exec(&shell, "doctor");
  EXPECT_EQ(doctor.rfind("ok ", 0), 0u) << doctor;
  EXPECT_NE(doctor.find("collision-pressure"), std::string::npos) << doctor;
  EXPECT_NE(doctor.find("[warn] query "), std::string::npos) << doctor;
  // The doctor prints findings only, never the tables.
  EXPECT_EQ(doctor.find("stream health"), std::string::npos) << doctor;
}

TEST(ShellTest, HealthNarrowsToQueryOrStream) {
  Shell shell;
  ASSERT_EQ(Exec(&shell, "stream f 2048"), "ok");
  ASSERT_EQ(Exec(&shell, "stream g 2048"), "ok");
  ASSERT_EQ(Exec(&shell, "join q f g hash-sketch 64"), "ok");
  ASSERT_EQ(Exec(&shell, "update f 7"), "ok");

  const std::string by_query = Exec(&shell, "health q");
  EXPECT_EQ(by_query.rfind("ok\n", 0), 0u) << by_query;
  EXPECT_NE(by_query.find("synopsis health"), std::string::npos) << by_query;
  EXPECT_EQ(by_query.find("| f "), std::string::npos) << by_query;

  const std::string by_stream = Exec(&shell, "health f");
  EXPECT_EQ(by_stream.rfind("ok\n", 0), 0u) << by_stream;
  EXPECT_NE(by_stream.find("stream health"), std::string::npos) << by_stream;
  EXPECT_EQ(by_stream.find("hash-sketch"), std::string::npos) << by_stream;

  EXPECT_EQ(Exec(&shell, "health nope"),
            "error: unknown join/frequency query or stream: nope");
}

// Fleet-capable health double: canned shard-labeled findings.
class FleetHealthBackend : public FleetFakeBackend {
 public:
  StatusOr<HealthReport> FleetHealthReport() override {
    HealthReport report;
    report.findings.push_back({HealthFinding::Severity::kWarn, "query 1",
                               "collision-pressure",
                               "hash-sketch.f occupancy 0.99 over f\u2a1dg — "
                               "the sketch is undersized for this stream",
                               "0"});
    report.findings.push_back({HealthFinding::Severity::kCritical, "shard s1",
                               "unreachable", "connect refused", "1"});
    return report;
  }
};

TEST(ShellTest, HealthAndDoctorGoFleetWideWithABackend) {
  FleetHealthBackend backend;
  Shell shell;
  shell.set_dist_backend(&backend);

  for (const char* line : {"health", "doctor"}) {
    const std::string response = Exec(&shell, line);
    EXPECT_EQ(response.rfind("ok 2\n", 0), 0u) << line << " -> " << response;
    EXPECT_NE(response.find("[warn] query 1{shard=\"0\"} collision-pressure"),
              std::string::npos)
        << response;
    EXPECT_NE(response.find("[critical] shard s1{shard=\"1\"} unreachable"),
              std::string::npos)
        << response;
  }

  // Narrowing is a local-engine feature.
  EXPECT_EQ(Exec(&shell, "health q"),
            "error: health narrowing is not supported with a distributed "
            "backend");

  // A pre-health backend reports the unimplemented status as an error.
  FakeDistBackend legacy;
  shell.set_dist_backend(&legacy);
  EXPECT_EQ(Exec(&shell, "health").rfind("error:", 0), 0u);
}

}  // namespace
}  // namespace query
}  // namespace skimjoin
