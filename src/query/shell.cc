#include "query/shell.h"

#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "query/dist_backend.h"
#include "stream/trace_io.h"
#include "util/durable_file.h"
#include "util/estimate_report.h"
#include "util/event_log.h"
#include "util/metrics.h"

namespace skimjoin {
namespace query {

namespace {

/// The one-line synopsis registry `help` renders. Kept next to the
/// dispatcher below; shell_test cross-checks both directions (every entry
/// dispatches, every observed command is listed).
const std::vector<std::pair<std::string, std::string>>& CommandRegistry() {
  static const auto* commands =
      new std::vector<std::pair<std::string, std::string>>{
          {"stream", "stream <name> <domain> — register a stream"},
          {"join",
           "join <q> <left> <right> <method> <space> — standing join query "
           "(agms | hash-sketch | skimmed | count-min | sampling)"},
          {"selfjoin",
           "selfjoin <q> <stream> <method> <space> — standing self-join "
           "query"},
          {"freq",
           "freq <q> <stream> <space> — point/heavy-hitter tracking"},
          {"distinct", "distinct <q> <stream> <maps> — COUNT DISTINCT"},
          {"topk", "topk <q> <stream> <k> <space> — continuous top-k"},
          {"top", "top <q> — current top-k answer"},
          {"quantile",
           "quantile <q> <stream> <epsilon> — deterministic GK quantiles"},
          {"phi", "phi <q> <phi> — current quantile answer"},
          {"update",
           "update <stream> <value> [count] [measure] — feed one element"},
          {"load",
           "load <stream> <trace-path> — replay a trace file as one batch "
           "(out-of-domain values are dropped and counted)"},
          {"answer", "answer <q> — current join/self-join/distinct estimate"},
          {"explain",
           "explain <q> — join estimate with provenance (copies, CI, "
           "a-priori bound, skim diagnostics)"},
          {"point", "point <q> <value> — point-frequency estimate"},
          {"heavy", "heavy <q> <threshold> — heavy hitters above threshold"},
          {"count", "count <stream> — net elements seen"},
          {"seed", "seed <n> — seed for subsequent queries"},
          {"checkpoint", "checkpoint <path> — save engine + query names"},
          {"restore",
           "restore <path> [partial] — restore a checkpoint into an empty "
           "shell"},
          {"streams", "streams — per-stream ingest stats"},
          {"stats", "stats — engine-wide totals"},
          {"metrics",
           "metrics [fleet] [json|prom] — metrics snapshot (fleet: merged "
           "per-shard series, shard=\"<k>\" labels; prom is multi-line)"},
          {"logs",
           "logs [n] [debug|info|warn|error] [--shard <k>] — last n "
           "(default 10) events at or above the level as JSON lines; "
           "--shard keeps only events scraped from worker k"},
          {"workers",
           "workers — per-shard health/incarnation/epoch (distributed "
           "backend)"},
          {"shards",
           "shards — shard fan-out and routing (distributed backend)"},
          {"fleet",
           "fleet — probe every shard, scrape its events, and render the "
           "fleet table (distributed backend)"},
          {"trace",
           "trace start|stop|dump <file> — toggle trace recording / write "
           "the Chrome trace (fleet-wide with a distributed backend)"},
          {"health",
           "health [<q>|<stream>] — stream profiles, synopsis probes, and "
           "findings (fleet findings with a distributed backend); the "
           "optional argument narrows to one query or stream"},
          {"doctor",
           "doctor — just the rule-based findings, one line each (fleet-wide "
           "with a distributed backend)"},
          {"alerts",
           "alerts <rel_error> <ci_width> — warn-event thresholds for "
           "accuracy drift / CI blow-up (inf disables)"},
          {"cache",
           "cache <on|off> | cache status <q> — epoch-invalidated query "
           "cache (read path)"},
          {"help", "help — print this list"},
          {"quit", "quit — stop reading commands"},
      };
  return *commands;
}

bool ParseEstimatorKind(const std::string& name, core::EstimatorKind* kind) {
  for (core::EstimatorKind candidate :
       {core::EstimatorKind::kAgms, core::EstimatorKind::kHashSketch,
        core::EstimatorKind::kSkimmedSketch, core::EstimatorKind::kCountMin,
        core::EstimatorKind::kSampling}) {
    if (name == core::EstimatorKindName(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

void Ok(std::ostream& out) { out << "ok\n"; }

template <typename T>
void OkValue(std::ostream& out, const T& value) {
  out << "ok " << value << "\n";
}

void Error(std::ostream& out, const std::string& reason) {
  out << "error: " << reason << "\n";
}

void Error(std::ostream& out, const Status& status) {
  Error(out, status.ToString());
}

// strtod-based so "inf" parses portably (istream num_get rejects it on
// some standard libraries).
bool ParseDouble(const std::string& token, double* value) {
  char* end = nullptr;
  *value = std::strtod(token.c_str(), &end);
  return end != token.c_str() && *end == '\0';
}

bool ParseLogLevelName(const std::string& token, LogLevel* level) {
  for (LogLevel candidate : {LogLevel::kDebug, LogLevel::kInfo,
                             LogLevel::kWarn, LogLevel::kError}) {
    if (token == LogLevelName(candidate)) {
      *level = candidate;
      return true;
    }
  }
  return false;
}

/// Commands that only make sense against the local engine: with a
/// distributed backend attached they would silently act on the shell's
/// empty engine, so they error instead.
bool IsLocalOnlyCommand(const std::string& command) {
  static const auto* names = new std::vector<std::string>{
      "distinct", "topk", "top",     "quantile", "phi",   "load",
      "restore",  "heavy", "count",  "streams",  "stats", "cache",
      "alerts",
  };
  for (const std::string& name : *names) {
    if (command == name) return true;
  }
  return false;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& Shell::CommandHelp() {
  return CommandRegistry();
}

StatusOr<QueryId> Shell::AddQuery(const QuerySpec& spec) {
  const uint64_t seed = next_seed_++;
  return dist_ != nullptr ? dist_->AddQuery(spec, seed)
                          : engine_.AddQuery(spec, seed);
}

bool Shell::ExecuteLine(const std::string& line, std::ostream& out) {
  std::istringstream fields(line);
  std::string command;
  if (!(fields >> command) || command[0] == '#') return true;

  if (command == "quit") {
    Ok(out);
    return false;
  }
  if (command == "help") {
    // Multi-line by design (like `metrics prom`): one synopsis per command,
    // rendered straight from the registry so the list can never go stale.
    out << "ok\n";
    for (const auto& [name, synopsis] : CommandRegistry()) {
      out << "  " << synopsis << "\n";
    }
    return true;
  }
  if (dist_ != nullptr && IsLocalOnlyCommand(command)) {
    Error(out, "`" + command +
                   "` is not supported with a distributed backend attached");
    return true;
  }
  if ((command == "workers" || command == "shards" || command == "fleet") &&
      dist_ == nullptr) {
    Error(out, "no distributed backend attached");
    return true;
  }
  if (command == "workers") {
    // Refresh health with one single-attempt probe per shard, then render
    // the fleet table. Multi-line by design, like `streams`.
    (void)dist_->ProbeHealth();
    const std::vector<DistShardStatus> statuses = dist_->ShardStatuses();
    out << "ok " << statuses.size() << "\n";
    for (const DistShardStatus& status : statuses) {
      out << "  " << status.shard << " health=" << status.health
          << " incarnation=" << status.incarnation
          << " epoch=" << status.last_acked_epoch
          << " retries=" << status.rpc_retries
          << " failures=" << status.rpc_failures << "\n";
    }
    return true;
  }
  if (command == "shards") {
    const std::vector<DistShardStatus> statuses = dist_->ShardStatuses();
    out << "ok " << dist_->NumShards() << " routing=value%"
        << dist_->NumShards();
    for (const DistShardStatus& status : statuses) {
      out << ' ' << status.shard;
    }
    out << "\n";
    return true;
  }
  if (command == "fleet") {
    // The one-stop operator view: refresh health, pull each worker's new
    // events into the local log (so a following `logs --shard <k>` is
    // fresh), and render the fleet table. Multi-line like `workers`.
    (void)dist_->ProbeHealth();
    const Status scraped = dist_->ScrapeFleetEvents();
    const std::vector<DistShardStatus> statuses = dist_->ShardStatuses();
    out << "ok " << statuses.size() << " shards";
    if (!scraped.ok() && scraped.code() != StatusCode::kUnimplemented) {
      out << " (event scrape incomplete)";
    }
    out << "\n";
    for (const DistShardStatus& status : statuses) {
      out << "  " << status.shard << " health=" << status.health
          << " incarnation=" << status.incarnation
          << " epoch=" << status.last_acked_epoch
          << " retries=" << status.rpc_retries
          << " failures=" << status.rpc_failures << "\n";
    }
    return true;
  }
  if (command == "trace") {
    std::string action;
    if (!(fields >> action)) {
      Error(out, "usage: trace start|stop|dump <file>");
      return true;
    }
    if (action == "start" || action == "stop") {
      const bool enable = (action == "start");
      if (dist_ != nullptr) {
        const Status status = dist_->SetFleetTracing(enable);
        if (!status.ok()) {
          Error(out, status);
          return true;
        }
      } else if (enable) {
        metrics::TraceRecorder::Global().Enable();
      } else {
        metrics::TraceRecorder::Global().Disable();
      }
      Ok(out);
      return true;
    }
    if (action == "dump") {
      std::string path;
      if (!(fields >> path)) {
        Error(out, "usage: trace dump <file>");
        return true;
      }
      std::string trace_json;
      if (dist_ != nullptr) {
        StatusOr<std::string> merged = dist_->DumpFleetTrace();
        if (!merged.ok()) {
          Error(out, merged.status());
          return true;
        }
        trace_json = std::move(*merged);
      } else {
        trace_json = metrics::TraceRecorder::Global().DrainAsChromeTrace();
      }
      const Status written = util::AtomicWriteFile(path, trace_json);
      if (!written.ok()) {
        Error(out, written);
        return true;
      }
      out << "ok " << trace_json.size() << " bytes\n";
      return true;
    }
    Error(out, "usage: trace start|stop|dump <file>");
    return true;
  }
  if (command == "seed") {
    uint64_t seed = 0;
    if (!(fields >> seed)) {
      Error(out, "usage: seed <n>");
      return true;
    }
    next_seed_ = seed;
    Ok(out);
    return true;
  }
  if (command == "stream") {
    StreamSpec spec;
    if (!(fields >> spec.name >> spec.domain_size)) {
      Error(out, "usage: stream <name> <domain>");
      return true;
    }
    if (dist_ != nullptr) {
      const Status status = dist_->RegisterStream(spec);
      if (!status.ok()) {
        Error(out, status);
        return true;
      }
      Ok(out);
      return true;
    }
    StatusOr<StreamId> id = engine_.RegisterStream(spec);
    if (!id.ok()) {
      Error(out, id.status());
      return true;
    }
    Ok(out);
    return true;
  }
  if (command == "join" || command == "selfjoin") {
    std::string name, left, right, method;
    uint64_t space = 0;
    const bool self = (command == "selfjoin");
    if (self) {
      if (!(fields >> name >> left >> method >> space)) {
        Error(out, "usage: selfjoin <q> <stream> <method> <space>");
        return true;
      }
      right = left;
    } else if (!(fields >> name >> left >> right >> method >> space)) {
      Error(out, "usage: join <q> <left> <right> <method> <space>");
      return true;
    }
    if (query_names_.contains(name)) {
      Error(out, "query name already in use: " + name);
      return true;
    }
    JoinQuerySpec spec;
    spec.left_stream = left;
    spec.right_stream = right;
    spec.estimator.space_counters = space;
    if (!ParseEstimatorKind(method, &spec.estimator.kind)) {
      Error(out, "unknown method: " + method +
                     " (agms | hash-sketch | skimmed | count-min | sampling)");
      return true;
    }
    StatusOr<QueryId> id = AddQuery(spec);
    if (!id.ok()) {
      Error(out, id.status());
      return true;
    }
    query_names_.emplace(name, NamedQuery{"join", *id});
    Ok(out);
    return true;
  }
  if (command == "freq") {
    std::string name;
    FrequencyQuerySpec spec;
    if (!(fields >> name >> spec.stream >> spec.space_counters)) {
      Error(out, "usage: freq <q> <stream> <space>");
      return true;
    }
    if (query_names_.contains(name)) {
      Error(out, "query name already in use: " + name);
      return true;
    }
    StatusOr<QueryId> id = AddQuery(spec);
    if (!id.ok()) {
      Error(out, id.status());
      return true;
    }
    query_names_.emplace(name, NamedQuery{"freq", *id});
    Ok(out);
    return true;
  }
  if (command == "distinct") {
    std::string name;
    DistinctCountQuerySpec spec;
    if (!(fields >> name >> spec.stream >> spec.num_maps)) {
      Error(out, "usage: distinct <q> <stream> <maps>");
      return true;
    }
    if (query_names_.contains(name)) {
      Error(out, "query name already in use: " + name);
      return true;
    }
    StatusOr<QueryId> id = AddQuery(spec);
    if (!id.ok()) {
      Error(out, id.status());
      return true;
    }
    query_names_.emplace(name, NamedQuery{"distinct", *id});
    Ok(out);
    return true;
  }
  if (command == "topk") {
    std::string name;
    TopKQuerySpec spec;
    if (!(fields >> name >> spec.stream >> spec.k >> spec.space_counters)) {
      Error(out, "usage: topk <q> <stream> <k> <space>");
      return true;
    }
    if (query_names_.contains(name)) {
      Error(out, "query name already in use: " + name);
      return true;
    }
    StatusOr<QueryId> id = AddQuery(spec);
    if (!id.ok()) {
      Error(out, id.status());
      return true;
    }
    query_names_.emplace(name, NamedQuery{"topk", *id});
    Ok(out);
    return true;
  }
  if (command == "top") {
    std::string name;
    if (!(fields >> name)) {
      Error(out, "usage: top <q>");
      return true;
    }
    const auto it = query_names_.find(name);
    if (it == query_names_.end() || it->second.kind != "topk") {
      Error(out, "unknown top-k query: " + name);
      return true;
    }
    StatusOr<std::vector<std::pair<uint64_t, int64_t>>> answer =
        engine_.AnswerTopK(it->second.id);
    if (!answer.ok()) {
      Error(out, answer.status());
      return true;
    }
    out << "ok";
    for (const auto& [value, frequency] : *answer) {
      out << ' ' << value << ':' << frequency;
    }
    out << "\n";
    return true;
  }
  if (command == "quantile") {
    std::string name;
    QuantileQuerySpec spec;
    if (!(fields >> name >> spec.stream >> spec.epsilon)) {
      Error(out, "usage: quantile <q> <stream> <epsilon>");
      return true;
    }
    if (query_names_.contains(name)) {
      Error(out, "query name already in use: " + name);
      return true;
    }
    StatusOr<QueryId> id = engine_.AddQuantileQuery(spec);
    if (!id.ok()) {
      Error(out, id.status());
      return true;
    }
    query_names_.emplace(name, NamedQuery{"quantile", *id});
    Ok(out);
    return true;
  }
  if (command == "phi") {
    std::string name;
    double phi = 0.0;
    if (!(fields >> name >> phi)) {
      Error(out, "usage: phi <q> <phi>");
      return true;
    }
    const auto it = query_names_.find(name);
    if (it == query_names_.end() || it->second.kind != "quantile") {
      Error(out, "unknown quantile query: " + name);
      return true;
    }
    StatusOr<uint64_t> answer = engine_.AnswerQuantile(it->second.id, phi);
    if (!answer.ok()) {
      Error(out, answer.status());
      return true;
    }
    OkValue(out, *answer);
    return true;
  }
  if (command == "update") {
    std::string stream;
    StreamUpdate update;
    if (!(fields >> stream >> update.value)) {
      Error(out, "usage: update <stream> <value> [count] [measure]");
      return true;
    }
    fields >> update.count >> update.measure;  // optional, default 1 / 0
    const Status status = dist_ != nullptr ? dist_->Update(stream, update)
                                           : engine_.Update(stream, update);
    if (!status.ok()) {
      Error(out, status);
      return true;
    }
    Ok(out);
    return true;
  }
  if (command == "load") {
    std::string stream, path;
    if (!(fields >> stream >> path)) {
      Error(out, "usage: load <stream> <trace-path>");
      return true;
    }
    StatusOr<std::vector<stream::StreamElement>> elements =
        stream::ReadTrace(path);
    if (!elements.ok()) {
      Error(out, elements.status());
      return true;
    }
    StatusOr<ingest::IngestStats> before = engine_.StreamIngestStats(stream);
    if (!before.ok()) {
      Error(out, before.status());
      return true;
    }
    std::vector<StreamUpdate> updates;
    updates.reserve(elements->size());
    for (const stream::StreamElement& e : *elements) {
      updates.push_back({e.value, e.weight, 0});
    }
    const Status status = engine_.UpdateBatch(stream, updates);
    if (!status.ok()) {
      Error(out, status);
      return true;
    }
    // One batch: out-of-domain values are dropped and counted, and the
    // rest of the trace still loads.
    const uint64_t dropped =
        engine_.StreamIngestStats(stream)->elements_dropped -
        before->elements_dropped;
    std::string reply = std::to_string(updates.size() - dropped);
    if (dropped != 0) reply += " dropped=" + std::to_string(dropped);
    OkValue(out, reply);
    return true;
  }
  if (command == "answer") {
    std::string name;
    if (!(fields >> name)) {
      Error(out, "usage: answer <q>");
      return true;
    }
    const auto it = query_names_.find(name);
    const std::string kind = it == query_names_.end() ? "" : it->second.kind;
    if (kind == "join") {
      if (always_explain_) {
        // --explain mode: same answer (the report's estimate is
        // bit-identical to AnswerJoin), plus the provenance table.
        StatusOr<EstimateReport> report =
            dist_ != nullptr ? dist_->AnswerJoinWithReport(it->second.id)
                             : engine_.AnswerJoinWithReport(it->second.id);
        if (!report.ok()) {
          Error(out, report.status());
          return true;
        }
        OkValue(out, report->estimate);
        out << RenderEstimateReport(*report);
        if (dist_ == nullptr) {
          if (StatusOr<Engine::QueryCacheStats> cache =
                  engine_.QueryCacheStatsFor(it->second.id);
              cache.ok()) {
            out << "  cache: " << (cache->enabled ? "enabled" : "disabled")
                << " hits=" << cache->hits << " misses=" << cache->misses
                << " invalidations=" << cache->invalidations << "\n";
          }
        }
        return true;
      }
      StatusOr<double> answer = dist_ != nullptr
                                    ? dist_->AnswerJoin(it->second.id)
                                    : engine_.AnswerJoin(it->second.id);
      if (!answer.ok()) {
        Error(out, answer.status());
        return true;
      }
      OkValue(out, *answer);
      return true;
    }
    if (kind == "distinct") {
      StatusOr<double> answer = engine_.AnswerDistinctCount(it->second.id);
      if (!answer.ok()) {
        Error(out, answer.status());
        return true;
      }
      OkValue(out, *answer);
      return true;
    }
    Error(out, "unknown join/distinct query: " + name);
    return true;
  }
  if (command == "explain") {
    std::string name;
    if (!(fields >> name)) {
      Error(out, "usage: explain <q>");
      return true;
    }
    const auto it = query_names_.find(name);
    if (it == query_names_.end() || it->second.kind != "join") {
      Error(out, "unknown join query: " + name);
      return true;
    }
    StatusOr<EstimateReport> report =
        dist_ != nullptr ? dist_->AnswerJoinWithReport(it->second.id)
                         : engine_.AnswerJoinWithReport(it->second.id);
    if (!report.ok()) {
      Error(out, report.status());
      return true;
    }
    // Multi-line by design: "ok" then the provenance table. The report
    // always recomputes (provenance needs the full estimator path), so the
    // appended cache line reflects prior `answer` traffic, not this call.
    out << "ok\n" << RenderEstimateReport(*report);
    if (dist_ == nullptr) {
      if (StatusOr<Engine::QueryCacheStats> cache =
              engine_.QueryCacheStatsFor(it->second.id);
          cache.ok()) {
        out << "  cache: " << (cache->enabled ? "enabled" : "disabled")
            << " hits=" << cache->hits << " misses=" << cache->misses
            << " invalidations=" << cache->invalidations << "\n";
      }
    }
    return true;
  }
  if (command == "logs") {
    size_t n = 10;
    bool saw_count = false;
    LogLevel min_level = LogLevel::kDebug;
    bool saw_level = false;
    bool saw_shard = false;
    uint64_t shard_filter = 0;
    std::string token;
    while (fields >> token) {
      if (token == "--shard") {
        if (saw_shard || !(fields >> shard_filter)) {
          Error(out, "usage: logs [n] [debug|info|warn|error] [--shard <k>]");
          return true;
        }
        saw_shard = true;
        continue;
      }
      if (LogLevel level; !saw_level && ParseLogLevelName(token, &level)) {
        min_level = level;
        saw_level = true;
        continue;
      }
      std::istringstream count_in(token);
      if (!saw_count && (count_in >> n) && count_in.peek() == EOF) {
        saw_count = true;
        continue;
      }
      Error(out, "usage: logs [n] [debug|info|warn|error] [--shard <k>]");
      return true;
    }
    if (saw_shard && dist_ != nullptr) {
      // Pull the workers' newest events first so `logs --shard` reflects
      // the fleet as of NOW, not the last explicit scrape.
      (void)dist_->ScrapeFleetEvents();
    }
    // Filter the whole retained ring by level FIRST, then keep the last n,
    // so `logs 5 warn` means "the 5 most recent warn-or-worse events", not
    // "the warn events among the last 5".
    std::vector<LogEvent> events =
        EventLog::Global().Tail(std::numeric_limits<size_t>::max());
    if (saw_level) {
      std::vector<LogEvent> kept;
      for (LogEvent& event : events) {
        if (event.level >= min_level) kept.push_back(std::move(event));
      }
      events = std::move(kept);
    }
    if (saw_shard) {
      // Keep only events scraped from worker `shard_filter` — they carry
      // the origin_shard field the coordinator re-emits them with.
      const std::string want = std::to_string(shard_filter);
      std::vector<LogEvent> kept;
      for (LogEvent& event : events) {
        for (const auto& [key, value] : event.fields) {
          if (key == "origin_shard" && value == want) {
            kept.push_back(std::move(event));
            break;
          }
        }
      }
      events = std::move(kept);
    }
    if (events.size() > n) {
      events.erase(events.begin(),
                   events.end() - static_cast<ptrdiff_t>(n));
    }
    // Multi-line by design: "ok <count>" then one JSON line per event,
    // oldest first (the frozen schema of util/event_log.h).
    out << "ok " << events.size() << "\n";
    for (const LogEvent& event : events) out << ToJsonLine(event) << "\n";
    return true;
  }
  if (command == "health" || command == "doctor") {
    if (dist_ != nullptr) {
      // Fleet mode: the coordinator merges every shard's findings, each
      // labeled with its origin shard; profiles and probes stay worker-side.
      std::string extra;
      if (command == "health" && (fields >> extra)) {
        Error(out,
              "health narrowing is not supported with a distributed backend");
        return true;
      }
      StatusOr<HealthReport> fleet = dist_->FleetHealthReport();
      if (!fleet.ok()) {
        Error(out, fleet.status());
        return true;
      }
      out << "ok " << fleet->findings.size() << "\n"
          << RenderHealthFindings(fleet->findings);
      return true;
    }
    HealthReport report = engine_.HealthReport();
    if (command == "doctor") {
      out << "ok " << report.findings.size() << "\n"
          << RenderHealthFindings(report.findings);
      return true;
    }
    if (std::string target; fields >> target) {
      // Narrow to one query (by shell name) or one stream.
      std::optional<QueryId> id;
      if (const auto it = query_names_.find(target);
          it != query_names_.end() &&
          (it->second.kind == "join" || it->second.kind == "freq")) {
        id = it->second.id;
      }
      if (id.has_value()) {
        const std::string subject = "query " + std::to_string(*id);
        std::erase_if(report.queries, [&](const QueryHealth& query) {
          return query.id != *id;
        });
        report.streams.clear();
        std::erase_if(report.findings, [&](const HealthFinding& finding) {
          return finding.subject != subject;
        });
      } else {
        bool known_stream = false;
        for (const std::string& name : engine_.StreamNames()) {
          if (name == target) known_stream = true;
        }
        if (!known_stream) {
          Error(out, "unknown join/frequency query or stream: " + target);
          return true;
        }
        const std::string subject = "stream " + target;
        std::erase_if(report.streams, [&](const StreamHealth& stream) {
          return stream.stream != target;
        });
        report.queries.clear();
        std::erase_if(report.findings, [&](const HealthFinding& finding) {
          return finding.subject != subject;
        });
      }
    }
    // Multi-line by design, like `explain`: "ok" then the health tables
    // and findings.
    out << "ok\n" << RenderHealthReport(report);
    return true;
  }
  if (command == "alerts") {
    std::string rel_error_token, ci_width_token;
    double rel_error = 0.0, ci_width = 0.0;
    if (!(fields >> rel_error_token >> ci_width_token) ||
        !ParseDouble(rel_error_token, &rel_error) ||
        !ParseDouble(ci_width_token, &ci_width)) {
      Error(out, "usage: alerts <rel_error> <ci_width> (inf disables)");
      return true;
    }
    engine_.SetAccuracyDriftWarnThreshold(rel_error);
    engine_.SetCiWarnRelWidth(ci_width);
    Ok(out);
    return true;
  }
  if (command == "cache") {
    std::string sub;
    if (!(fields >> sub)) {
      Error(out, "usage: cache <on|off> | cache status <q>");
      return true;
    }
    if (sub == "on" || sub == "off") {
      Engine::ReadPathOptions options = engine_.read_path_options();
      options.use_query_cache = (sub == "on");
      engine_.SetReadPathOptions(options);
      Ok(out);
      return true;
    }
    if (sub == "status") {
      std::string name;
      if (!(fields >> name)) {
        Error(out, "usage: cache status <q>");
        return true;
      }
      const auto it = query_names_.find(name);
      if (it == query_names_.end() ||
          (it->second.kind != "join" && it->second.kind != "freq")) {
        Error(out, "unknown join/frequency query: " + name);
        return true;
      }
      StatusOr<Engine::QueryCacheStats> stats =
          engine_.QueryCacheStatsFor(it->second.id);
      if (!stats.ok()) {
        Error(out, stats.status());
        return true;
      }
      out << "ok cache=" << (stats->enabled ? "on" : "off")
          << " hits=" << stats->hits << " misses=" << stats->misses
          << " invalidations=" << stats->invalidations << "\n";
      return true;
    }
    Error(out, "usage: cache <on|off> | cache status <q>");
    return true;
  }
  if (command == "point") {
    std::string name;
    uint64_t value = 0;
    if (!(fields >> name >> value)) {
      Error(out, "usage: point <q> <value>");
      return true;
    }
    const auto it = query_names_.find(name);
    if (it == query_names_.end() || it->second.kind != "freq") {
      Error(out, "unknown frequency query: " + name);
      return true;
    }
    StatusOr<int64_t> answer =
        dist_ != nullptr ? dist_->AnswerPointFrequency(it->second.id, value)
                         : engine_.AnswerPointFrequency(it->second.id, value);
    if (!answer.ok()) {
      Error(out, answer.status());
      return true;
    }
    OkValue(out, *answer);
    return true;
  }
  if (command == "heavy") {
    std::string name;
    int64_t threshold = 0;
    if (!(fields >> name >> threshold)) {
      Error(out, "usage: heavy <q> <threshold>");
      return true;
    }
    const auto it = query_names_.find(name);
    if (it == query_names_.end() || it->second.kind != "freq") {
      Error(out, "unknown frequency query: " + name);
      return true;
    }
    StatusOr<core::DenseFrequencies> answer =
        engine_.AnswerHeavyHitters(it->second.id, threshold);
    if (!answer.ok()) {
      Error(out, answer.status());
      return true;
    }
    out << "ok";
    for (const auto& [value, frequency] : *answer) {
      out << ' ' << value << ':' << frequency;
    }
    out << "\n";
    return true;
  }
  if (command == "checkpoint") {
    if (dist_ != nullptr) {
      // Distributed mode: each worker checkpoints to its own configured
      // path; the shell just triggers the fleet-wide sweep.
      const Status status = dist_->CheckpointShards();
      if (!status.ok()) {
        Error(out, status);
        return true;
      }
      Ok(out);
      return true;
    }
    std::string path;
    if (!(fields >> path)) {
      Error(out, "usage: checkpoint <path>");
      return true;
    }
    // The engine checkpoint carries arbitrary metadata; stash the shell's
    // query names there so they survive a save/restore round trip.
    std::map<std::string, std::string> metadata;
    for (const auto& [name, query] : query_names_) {
      metadata["shell." + query.kind + "." + name] = std::to_string(query.id);
    }
    const Status status = engine_.SaveCheckpoint(path, metadata);
    if (!status.ok()) {
      Error(out, status);
      return true;
    }
    Ok(out);
    return true;
  }
  if (command == "restore") {
    std::string path, mode;
    if (!(fields >> path)) {
      Error(out, "usage: restore <path> [partial]");
      return true;
    }
    RestoreOptions options;
    if (fields >> mode) {
      if (mode != "partial") {
        Error(out, "usage: restore <path> [partial]");
        return true;
      }
      options.allow_partial = true;
    }
    StatusOr<RestoreReport> report = engine_.RestoreCheckpoint(path, options);
    if (!report.ok()) {
      Error(out, report.status());
      return true;
    }
    query_names_.clear();
    for (const auto& [key, value] : report->metadata) {
      if (key.rfind("shell.", 0) != 0) continue;
      const size_t kind_end = key.find('.', 6);
      if (kind_end == std::string::npos) continue;
      const std::string kind = key.substr(6, kind_end - 6);
      const std::string name = key.substr(kind_end + 1);
      QueryId id = 0;
      std::istringstream id_in(value);
      if (name.empty() || !(id_in >> id)) continue;
      if (kind == "join" || kind == "freq" || kind == "distinct" ||
          kind == "topk" || kind == "quantile") {
        query_names_.emplace(name, NamedQuery{kind, id});
      }
    }
    if (report->lost.empty()) {
      Ok(out);
    } else {
      OkValue(out, "lost " + std::to_string(report->lost.size()));
    }
    return true;
  }
  if (command == "count") {
    std::string stream;
    if (!(fields >> stream)) {
      Error(out, "usage: count <stream>");
      return true;
    }
    StatusOr<int64_t> answer = engine_.StreamElementCount(stream);
    if (!answer.ok()) {
      Error(out, answer.status());
      return true;
    }
    OkValue(out, *answer);
    return true;
  }
  if (command == "streams") {
    out << "ok";
    for (const std::string& name : engine_.StreamNames()) {
      StatusOr<ingest::IngestStats> stats = engine_.StreamIngestStats(name);
      StatusOr<int64_t> count = engine_.StreamElementCount(name);
      if (!stats.ok() || !count.ok()) continue;  // unreachable: name is live
      out << ' ' << name << ":count=" << *count
          << ",absorbed=" << stats->elements_absorbed
          << ",dropped=" << stats->elements_dropped
          << ",batches=" << stats->batches << ",merges=" << stats->merges
          << ",absorb_nanos=" << stats->absorb_nanos
          << ",merge_nanos=" << stats->merge_nanos;
    }
    out << "\n";
    return true;
  }
  if (command == "stats") {
    uint64_t absorbed = 0, dropped = 0, batches = 0, merges = 0;
    for (const std::string& name : engine_.StreamNames()) {
      StatusOr<ingest::IngestStats> stats = engine_.StreamIngestStats(name);
      if (!stats.ok()) continue;  // unreachable: name is live
      absorbed += stats->elements_absorbed;
      dropped += stats->elements_dropped;
      batches += stats->batches;
      merges += stats->merges;
    }
    out << "ok streams=" << engine_.num_streams()
        << " relations=" << engine_.num_relations()
        << " queries=" << engine_.num_queries() << " absorbed=" << absorbed
        << " dropped=" << dropped << " batches=" << batches
        << " merges=" << merges << "\n";
    return true;
  }
  if (command == "metrics") {
    bool want_fleet = false;
    std::string format;
    fields >> format;  // optional "fleet", then optional format
    if (format == "fleet") {
      want_fleet = true;
      format.clear();
      fields >> format;
    }
    if (want_fleet && dist_ == nullptr) {
      Error(out, "no distributed backend attached");
      return true;
    }
    metrics::Snapshot snapshot;
    std::string banner;
    if (dist_ != nullptr) {
      // Distributed mode routes to the fleet path whether or not the
      // caller said `fleet`: a merged snapshot (coordinator series plus
      // every shard's, labeled shard="<k>") is what an operator means by
      // "the metrics". A backend without the fleet path falls back to the
      // coordinator-local registry, flagged by a banner line so nobody
      // mistakes it for fleet coverage.
      StatusOr<metrics::Snapshot> fleet = dist_->FleetMetricsSnapshot();
      if (fleet.ok()) {
        snapshot = std::move(*fleet);
      } else if (want_fleet) {
        Error(out, fleet.status());
        return true;
      } else {
        metrics::Registry* registry = dist_->MetricsRegistry();
        if (registry == nullptr) {
          Error(out, "the attached distributed backend exposes no metrics");
          return true;
        }
        snapshot = registry->TakeSnapshot();
        banner = "(coordinator-local; use 'metrics fleet')";
      }
    } else {
      snapshot = engine_.MetricsSnapshot();
    }
    if (format.empty() || format == "json") {
      OkValue(out, metrics::ToJson(snapshot));
      if (!banner.empty()) out << banner << "\n";
    } else if (format == "prom") {
      // The documented exception to the one-line contract: the Prometheus
      // text exposition format is inherently multi-line.
      out << "ok\n";
      if (!banner.empty()) out << "# " << banner << "\n";
      out << metrics::ToPrometheusText(snapshot);
    } else {
      Error(out, "usage: metrics [fleet] [json|prom]");
    }
    return true;
  }
  Error(out, "unknown command: " + command + " (try `help`)");
  return true;
}

int Shell::Run(std::istream& in, std::ostream& out) {
  int errors = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::ostringstream response;
    const bool keep_going = ExecuteLine(line, response);
    const std::string text = response.str();
    out << text;
    if (text.rfind("error:", 0) == 0) ++errors;
    if (post_command_hook_) post_command_hook_();
    if (!keep_going) break;
  }
  return errors;
}

}  // namespace query
}  // namespace skimjoin
