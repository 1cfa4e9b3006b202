#include "query/shell.h"

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <type_traits>
#include <unordered_map>
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

/// The kinds of query a shell name can hold.
enum class QueryKind { kJoin, kFreq, kDistinct, kTopK, kQuantile };

/// The kinds' one name table, in QueryKind order. `key` is the kind in the
/// checkpoint metadata keys `shell.<key>.<name>`, so checkpoints written
/// by any version restore their names; `noun` names the kind in refusals;
/// `seeded` says whether registering one takes the next query seed (a GK
/// quantile summary is deterministic and takes none).
struct KindName {
  const char* key;
  const char* noun;
  bool seeded;
};
constexpr KindName kKindNames[] = {
    {"join", "join", true},         {"freq", "frequency", true},
    {"distinct", "distinct", true}, {"topk", "top-k", true},
    {"quantile", "quantile", false},
};

const KindName& NameOf(QueryKind kind) {
  return kKindNames[static_cast<int>(kind)];
}

/// The candidate whose name is `token`, if any.
template <typename T, typename NameFn>
std::optional<T> ByName(const std::string& token,
                        std::initializer_list<T> candidates, NameFn name) {
  for (T candidate : candidates) {
    if (token == name(candidate)) return candidate;
  }
  return std::nullopt;
}

/// "unknown join/frequency query" for the kinds a command accepts.
std::string UnknownQuery(std::initializer_list<QueryKind> kinds) {
  std::string nouns;
  for (QueryKind kind : kinds) {
    nouns += (nouns.empty() ? "" : "/") + std::string(NameOf(kind).noun);
  }
  return "unknown " + nouns + " query";
}

struct NamedQuery {
  QueryKind kind;
  QueryId id = 0;
};

}  // namespace

/// What the command handlers share: the local engine, the attached backend
/// (if any), the --explain switch, the query names and the next seed.
struct ShellState {
  Engine engine;
  DistBackend* dist = nullptr;
  bool always_explain = false;
  /// Every query name, whatever its kind: a name names one query.
  std::unordered_map<std::string, NamedQuery> names;
  uint64_t next_seed = 1;
};

namespace {

/// A token parses whole or not at all: "2x" is not 2, and an unsigned field
/// takes no sign ("-5" is not 2^64 − 5). `value` changes only on success.
template <typename T>
bool ParseWhole(const std::string& token, T* value) {
  if constexpr (std::is_same_v<T, std::string>) {
    *value = token;
    return true;
  } else {
    if (token.empty() ||
        (std::is_unsigned_v<T> && (token[0] == '-' || token[0] == '+'))) {
      return false;
    }
    std::istringstream in(token);
    T parsed{};
    if (!(in >> parsed) || in.peek() != EOF) return false;
    *value = parsed;
    return true;
  }
}

// strtod-based so "inf" parses portably (istream num_get rejects it on
// some standard libraries).
bool ParseDouble(const std::string& token, double* value) {
  char* end = nullptr;
  *value = std::strtod(token.c_str(), &end);
  return end != token.c_str() && *end == '\0';
}

class Call;

/// Where a command may run.
enum class Scope { kLocal, kFleet, kEither };

/// One entry of the command table.
struct Command {
  const char* name;
  /// `help` prints "<syntax> — <summary>"; a usage error repeats the syntax.
  const char* syntax;
  const char* summary;
  Scope scope;
  void (*run)(Call&);
};

/// One command line as its handler sees it: the shell's state, the
/// argument tokens after the command name, and the reply stream.
class Call {
 public:
  Call(ShellState& state, const Command& command,
       std::vector<std::string> tokens, std::ostream& reply)
      : s(state), out(reply), command_(command), tokens_(std::move(tokens)) {}

  ShellState& s;
  std::ostream& out;
  bool keep_going = true;  // `quit` clears it

  /// The next argument token; false, with `token` untouched, at the end.
  bool Next(std::string* token) {
    if (next_ == tokens_.size()) return false;
    *token = tokens_[next_++];
    return true;
  }

  /// Reads the next tokens into `fields`, each whole (ParseWhole). A
  /// missing or malformed token gets the command's usage error and false.
  template <typename... T>
  bool Parse(T*... fields) {
    if ((ParseOne(fields) && ...)) return true;
    Usage();
    return false;
  }

  /// Parse for trailing optional fields: the fields past the line's end
  /// keep their defaults, but a present token must parse.
  template <typename... T>
  bool ParseOptional(T*... fields) {
    if (((next_ == tokens_.size() || ParseOne(fields)) && ...)) return true;
    Usage();
    return false;
  }

  /// The query `name` names if it is one of `kinds`, else nullptr.
  const NamedQuery* Find(const std::string& name,
                         std::initializer_list<QueryKind> kinds) const {
    const auto it = s.names.find(name);
    if (it == s.names.end() ||
        std::find(kinds.begin(), kinds.end(), it->second.kind) ==
            kinds.end()) {
      return nullptr;
    }
    return &it->second;
  }

  /// Find, replying "unknown <kinds> query: <name>" when it fails.
  const NamedQuery* Resolve(const std::string& name,
                            std::initializer_list<QueryKind> kinds) {
    const NamedQuery* query = Find(name, kinds);
    if (query == nullptr) Fail(UnknownQuery(kinds) + ": " + name);
    return query;
  }

  /// Parses a query name, then `fields`, and resolves the name to a query
  /// of one of `kinds`: nullptr after the usage error or the refusal.
  template <typename... T>
  const NamedQuery* ParseQuery(std::initializer_list<QueryKind> kinds,
                               T*... fields) {
    std::string name;
    return Parse(&name, fields...) ? Resolve(name, kinds) : nullptr;
  }

  /// False, after the refusal, when a query already holds `name`.
  bool NameFree(const std::string& name) {
    if (!s.names.contains(name)) return true;
    Fail("query name already in use: " + name);
    return false;
  }

  /// Registers `spec` under `name` on the attached backend, else on the
  /// local engine, with the next query seed if its kind takes one.
  void Register(const std::string& name, QueryKind kind,
                const QuerySpec& spec) {
    if (!NameFree(name)) return;
    const uint64_t seed = NameOf(kind).seeded ? s.next_seed++ : 0;
    StatusOr<QueryId> id = s.dist != nullptr ? s.dist->AddQuery(spec, seed)
                                             : s.engine.AddQuery(spec, seed);
    if (!id.ok()) return Fail(id.status());
    s.names.emplace(name, NamedQuery{kind, *id});
    Ok();
  }

  void Ok() { out << "ok\n"; }
  template <typename T>
  void Ok(const T& payload) {
    out << "ok " << payload << "\n";
  }
  void Fail(const std::string& reason) { out << "error: " << reason << "\n"; }
  void Fail(const Status& status) { Fail(status.ToString()); }
  /// "usage: <syntax>" with the command's own syntax unless one is given.
  void Usage(const char* syntax = nullptr) {
    Fail(std::string("usage: ") +
         (syntax != nullptr ? syntax : command_.syntax));
  }
  /// "ok" or the status's error.
  void Reply(const Status& status) { status.ok() ? Ok() : Fail(status); }
  /// "ok <value>" or the status's error.
  template <typename T>
  void Reply(const StatusOr<T>& result) {
    result.ok() ? Ok(*result) : Fail(result.status());
  }

 private:
  template <typename T>
  bool ParseOne(T* field) {
    std::string token;
    return Next(&token) && ParseWhole(token, field);
  }

  const Command& command_;
  std::vector<std::string> tokens_;
  size_t next_ = 1;  // tokens_[0] is the command name
};

// ---- shared replies --------------------------------------------------------

void WriteCacheCounters(std::ostream& out,
                        const Engine::QueryCacheStats& stats) {
  out << " hits=" << stats.hits << " misses=" << stats.misses
      << " invalidations=" << stats.invalidations << "\n";
}

/// The provenance reply of `explain`, and of `answer` under --explain: "ok"
/// (with the estimate, which is bit-identical to AnswerJoin's, on
/// `answer`), the report table, and on the local engine the query's cache
/// counters. The report always recomputes, so the cache line reflects
/// prior `answer` traffic, not this call.
void ReplyWithReport(Call& c, QueryId id, bool with_estimate) {
  StatusOr<EstimateReport> report = c.s.dist != nullptr
                                        ? c.s.dist->AnswerJoinWithReport(id)
                                        : c.s.engine.AnswerJoinWithReport(id);
  if (!report.ok()) return c.Fail(report.status());
  with_estimate ? c.Ok(report->estimate) : c.Ok();
  c.out << RenderEstimateReport(*report);
  if (c.s.dist != nullptr) return;
  if (StatusOr<Engine::QueryCacheStats> cache =
          c.s.engine.QueryCacheStatsFor(id);
      cache.ok()) {
    c.out << "  cache: " << (cache->enabled ? "enabled" : "disabled");
    WriteCacheCounters(c.out, *cache);
  }
}

/// "ok value:frequency ..." for top-k and heavy-hitter answers.
template <typename Frequencies>
void ReplyFrequencies(Call& c, const StatusOr<Frequencies>& answer) {
  if (!answer.ok()) return c.Fail(answer.status());
  c.out << "ok";
  for (const auto& [value, frequency] : *answer) {
    c.out << ' ' << value << ':' << frequency;
  }
  c.out << "\n";
}

/// `health` and `doctor` with a backend attached: every shard's findings,
/// each labeled with its origin shard; profiles and probes stay on the
/// workers.
void ReplyFleetFindings(Call& c) {
  StatusOr<HealthReport> fleet = c.s.dist->FleetHealthReport();
  if (!fleet.ok()) return c.Fail(fleet.status());
  c.out << "ok " << fleet->findings.size() << "\n"
        << RenderHealthFindings(fleet->findings);
}

// ---- registration ----------------------------------------------------------

void RunStream(Call& c) {
  StreamSpec spec;
  if (!c.Parse(&spec.name, &spec.domain_size)) return;
  c.Reply(c.s.dist != nullptr ? c.s.dist->RegisterStream(spec)
                              : c.s.engine.RegisterStream(spec).status());
}

/// `join` and `selfjoin` once parsed: a taken name is reported before an
/// unknown method.
void RegisterJoin(Call& c, const std::string& name, JoinQuerySpec spec,
                  const std::string& method) {
  if (!c.NameFree(name)) return;
  const std::optional<core::EstimatorKind> kind = ByName(
      method,
      {core::EstimatorKind::kAgms, core::EstimatorKind::kHashSketch,
       core::EstimatorKind::kSkimmedSketch, core::EstimatorKind::kCountMin,
       core::EstimatorKind::kSampling},
      core::EstimatorKindName);
  if (!kind.has_value()) {
    return c.Fail("unknown method: " + method +
                  " (agms | hash-sketch | skimmed | count-min | sampling)");
  }
  spec.estimator.kind = *kind;
  c.Register(name, QueryKind::kJoin, spec);
}

void RunJoin(Call& c) {
  std::string name, method;
  JoinQuerySpec spec;
  if (c.Parse(&name, &spec.left_stream, &spec.right_stream, &method,
              &spec.estimator.space_counters)) {
    RegisterJoin(c, name, spec, method);
  }
}

void RunSelfJoin(Call& c) {
  std::string name, method;
  JoinQuerySpec spec;
  if (!c.Parse(&name, &spec.left_stream, &method,
               &spec.estimator.space_counters)) {
    return;
  }
  spec.right_stream = spec.left_stream;
  RegisterJoin(c, name, spec, method);
}

void RunFreq(Call& c) {
  std::string name;
  FrequencyQuerySpec spec;
  if (c.Parse(&name, &spec.stream, &spec.space_counters)) {
    c.Register(name, QueryKind::kFreq, spec);
  }
}

void RunDistinct(Call& c) {
  std::string name;
  DistinctCountQuerySpec spec;
  if (c.Parse(&name, &spec.stream, &spec.num_maps)) {
    c.Register(name, QueryKind::kDistinct, spec);
  }
}

void RunTopK(Call& c) {
  std::string name;
  TopKQuerySpec spec;
  if (c.Parse(&name, &spec.stream, &spec.k, &spec.space_counters)) {
    c.Register(name, QueryKind::kTopK, spec);
  }
}

void RunQuantile(Call& c) {
  std::string name;
  QuantileQuerySpec spec;
  if (c.Parse(&name, &spec.stream, &spec.epsilon)) {
    c.Register(name, QueryKind::kQuantile, spec);
  }
}

void RunSeed(Call& c) {
  if (c.Parse(&c.s.next_seed)) c.Ok();
}

// ---- ingest ----------------------------------------------------------------

void RunUpdate(Call& c) {
  std::string stream;
  StreamUpdate update;  // count 1, measure 0 unless given
  if (!c.Parse(&stream, &update.value) ||
      !c.ParseOptional(&update.count, &update.measure)) {
    return;
  }
  c.Reply(c.s.dist != nullptr ? c.s.dist->Update(stream, update)
                              : c.s.engine.Update(stream, update));
}

void RunLoad(Call& c) {
  std::string stream, path;
  if (!c.Parse(&stream, &path)) return;
  StatusOr<std::vector<stream::StreamElement>> elements =
      stream::ReadTrace(path);
  if (!elements.ok()) return c.Fail(elements.status());
  StatusOr<ingest::IngestStats> before = c.s.engine.StreamIngestStats(stream);
  if (!before.ok()) return c.Fail(before.status());
  std::vector<StreamUpdate> updates;
  updates.reserve(elements->size());
  for (const stream::StreamElement& e : *elements) {
    updates.push_back({e.value, e.weight, 0});
  }
  if (Status status = c.s.engine.UpdateBatch(stream, updates); !status.ok()) {
    return c.Fail(status);
  }
  // One batch: out-of-domain values are dropped and counted, and the rest
  // of the trace still loads.
  const uint64_t dropped =
      c.s.engine.StreamIngestStats(stream)->elements_dropped -
      before->elements_dropped;
  std::string reply = std::to_string(updates.size() - dropped);
  if (dropped != 0) reply += " dropped=" + std::to_string(dropped);
  c.Ok(reply);
}

// ---- answers ---------------------------------------------------------------

void RunAnswer(Call& c) {
  const NamedQuery* query =
      c.ParseQuery({QueryKind::kJoin, QueryKind::kDistinct});
  if (query == nullptr) return;
  if (query->kind == QueryKind::kDistinct) {
    return c.Reply(c.s.engine.AnswerDistinctCount(query->id));
  }
  if (c.s.always_explain) return ReplyWithReport(c, query->id, true);
  c.Reply(c.s.dist != nullptr ? c.s.dist->AnswerJoin(query->id)
                              : c.s.engine.AnswerJoin(query->id));
}

void RunExplain(Call& c) {
  if (const NamedQuery* query = c.ParseQuery({QueryKind::kJoin})) {
    ReplyWithReport(c, query->id, false);
  }
}

void RunPoint(Call& c) {
  uint64_t value = 0;
  if (const NamedQuery* query = c.ParseQuery({QueryKind::kFreq}, &value)) {
    c.Reply(c.s.dist != nullptr
                ? c.s.dist->AnswerPointFrequency(query->id, value)
                : c.s.engine.AnswerPointFrequency(query->id, value));
  }
}

void RunHeavy(Call& c) {
  int64_t threshold = 0;
  if (const NamedQuery* query =
          c.ParseQuery({QueryKind::kFreq}, &threshold)) {
    ReplyFrequencies(c, c.s.engine.AnswerHeavyHitters(query->id, threshold));
  }
}

void RunTop(Call& c) {
  if (const NamedQuery* query = c.ParseQuery({QueryKind::kTopK})) {
    ReplyFrequencies(c, c.s.engine.AnswerTopK(query->id));
  }
}

void RunPhi(Call& c) {
  double phi = 0.0;
  if (const NamedQuery* query = c.ParseQuery({QueryKind::kQuantile}, &phi)) {
    c.Reply(c.s.engine.AnswerQuantile(query->id, phi));
  }
}

void RunCount(Call& c) {
  std::string stream;
  if (c.Parse(&stream)) c.Reply(c.s.engine.StreamElementCount(stream));
}

// ---- checkpoints -----------------------------------------------------------

void RunCheckpoint(Call& c) {
  // With a backend each worker checkpoints to its own configured path: the
  // shell only triggers the fleet-wide sweep, and takes no path.
  if (c.s.dist != nullptr) return c.Reply(c.s.dist->CheckpointShards());
  std::string path;
  if (!c.Parse(&path)) return;
  // The engine checkpoint carries arbitrary metadata; the shell's query
  // names ride there, so they survive a save/restore round trip.
  std::map<std::string, std::string> metadata;
  for (const auto& [name, query] : c.s.names) {
    metadata["shell." + std::string(NameOf(query.kind).key) + "." + name] =
        std::to_string(query.id);
  }
  c.Reply(c.s.engine.SaveCheckpoint(path, metadata));
}

/// `partial` keeps whatever sections of the checkpoint are intact.
void RunRestore(Call& c) {
  std::string path, mode;
  if (!c.Parse(&path) || !c.ParseOptional(&mode)) return;
  RestoreOptions options;
  if (!mode.empty()) {
    if (mode != "partial") return c.Usage();
    options.allow_partial = true;
  }
  StatusOr<RestoreReport> report = c.s.engine.RestoreCheckpoint(path, options);
  if (!report.ok()) return c.Fail(report.status());
  c.s.names.clear();
  for (const auto& [key, value] : report->metadata) {
    if (key.rfind("shell.", 0) != 0) continue;
    const size_t kind_end = key.find('.', 6);
    if (kind_end == std::string::npos) continue;
    const std::optional<QueryKind> kind =
        ByName(key.substr(6, kind_end - 6),
               {QueryKind::kJoin, QueryKind::kFreq, QueryKind::kDistinct,
                QueryKind::kTopK, QueryKind::kQuantile},
               [](QueryKind candidate) { return NameOf(candidate).key; });
    const std::string name = key.substr(kind_end + 1);
    QueryId id = 0;
    if (kind.has_value() && !name.empty() && ParseWhole(value, &id)) {
      c.s.names.emplace(name, NamedQuery{*kind, id});
    }
  }
  if (report->lost.empty()) return c.Ok();
  c.Ok("lost " + std::to_string(report->lost.size()));
}

// ---- telemetry -------------------------------------------------------------

void RunStreams(Call& c) {
  c.out << "ok";
  for (const std::string& name : c.s.engine.StreamNames()) {
    StatusOr<ingest::IngestStats> stats = c.s.engine.StreamIngestStats(name);
    StatusOr<int64_t> count = c.s.engine.StreamElementCount(name);
    if (!stats.ok() || !count.ok()) continue;  // unreachable: name is live
    c.out << ' ' << name << ":count=" << *count
          << ",absorbed=" << stats->elements_absorbed
          << ",dropped=" << stats->elements_dropped
          << ",batches=" << stats->batches << ",merges=" << stats->merges
          << ",absorb_nanos=" << stats->absorb_nanos
          << ",merge_nanos=" << stats->merge_nanos;
  }
  c.out << "\n";
}

void RunStats(Call& c) {
  uint64_t absorbed = 0, dropped = 0, batches = 0, merges = 0;
  for (const std::string& name : c.s.engine.StreamNames()) {
    StatusOr<ingest::IngestStats> stats = c.s.engine.StreamIngestStats(name);
    if (!stats.ok()) continue;  // unreachable: name is live
    absorbed += stats->elements_absorbed;
    dropped += stats->elements_dropped;
    batches += stats->batches;
    merges += stats->merges;
  }
  c.out << "ok streams=" << c.s.engine.num_streams()
        << " relations=" << c.s.engine.num_relations()
        << " queries=" << c.s.engine.num_queries() << " absorbed=" << absorbed
        << " dropped=" << dropped << " batches=" << batches
        << " merges=" << merges << "\n";
}

void RunMetrics(Call& c) {
  std::string format;
  c.Next(&format);  // optional "fleet", then optional format
  const bool want_fleet = format == "fleet";
  if (want_fleet) {
    format.clear();
    c.Next(&format);
    if (c.s.dist == nullptr) return c.Fail("no distributed backend attached");
  }
  metrics::Snapshot snapshot;
  std::string banner;
  if (c.s.dist != nullptr) {
    // Distributed mode routes to the fleet path whether or not the caller
    // said `fleet`: a merged snapshot (coordinator series plus every
    // shard's, labeled shard="<k>") is what an operator means by "the
    // metrics". A backend without the fleet path falls back to the
    // coordinator-local registry, flagged by a banner line so nobody
    // mistakes it for fleet coverage.
    StatusOr<metrics::Snapshot> fleet = c.s.dist->FleetMetricsSnapshot();
    if (fleet.ok()) {
      snapshot = std::move(*fleet);
    } else if (want_fleet) {
      return c.Fail(fleet.status());
    } else {
      metrics::Registry* registry = c.s.dist->MetricsRegistry();
      if (registry == nullptr) {
        return c.Fail("the attached distributed backend exposes no metrics");
      }
      snapshot = registry->TakeSnapshot();
      banner = "(coordinator-local; use 'metrics fleet')";
    }
  } else {
    snapshot = c.s.engine.MetricsSnapshot();
  }
  if (format.empty() || format == "json") {
    c.Ok(metrics::ToJson(snapshot));
    if (!banner.empty()) c.out << banner << "\n";
  } else if (format == "prom") {
    // The Prometheus text exposition format is inherently multi-line.
    c.Ok();
    if (!banner.empty()) c.out << "# " << banner << "\n";
    c.out << metrics::ToPrometheusText(snapshot);
  } else {
    c.Usage();
  }
}

void RunLogs(Call& c) {
  size_t n = 10;
  LogLevel min_level = LogLevel::kDebug;
  uint64_t shard = 0;
  bool saw_count = false, saw_level = false, saw_shard = false;
  for (std::string token; c.Next(&token);) {
    if (token == "--shard" && !saw_shard) {
      if (!c.Parse(&shard)) return;
      saw_shard = true;
    } else if (const std::optional<LogLevel> level = ByName(
                   token,
                   {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                    LogLevel::kError},
                   LogLevelName);
               level.has_value() && !saw_level) {
      min_level = *level;
      saw_level = true;
    } else if (!saw_count && ParseWhole(token, &n)) {
      saw_count = true;
    } else {
      return c.Usage();
    }
  }
  if (saw_shard && c.s.dist != nullptr) {
    // Pull the workers' newest events first so `logs --shard` reflects
    // the fleet as of NOW, not the last explicit scrape.
    (void)c.s.dist->ScrapeFleetEvents();
  }
  // Filter the whole retained ring by level FIRST, then keep the last n,
  // so `logs 5 warn` means "the 5 most recent warn-or-worse events", not
  // "the warn events among the last 5".
  std::vector<LogEvent> events =
      EventLog::Global().Tail(std::numeric_limits<size_t>::max());
  // --shard keeps only events scraped from that worker: they carry the
  // origin_shard field the coordinator re-emits them with.
  const std::string want_shard = std::to_string(shard);
  std::erase_if(events, [&](const LogEvent& event) {
    return event.level < min_level ||
           (saw_shard &&
            std::none_of(event.fields.begin(), event.fields.end(),
                         [&](const auto& field) {
                           return field.first == "origin_shard" &&
                                  field.second == want_shard;
                         }));
  });
  if (events.size() > n) {
    events.erase(events.begin(), events.end() - static_cast<ptrdiff_t>(n));
  }
  // Multi-line: "ok <count>" then one JSON line per event, oldest first
  // (the frozen schema of util/event_log.h).
  c.Ok(events.size());
  for (const LogEvent& event : events) c.out << ToJsonLine(event) << "\n";
}

/// With a backend the toggle fans out to every worker, and `dump` merges
/// every process's spans on one clock-aligned timeline.
void RunTrace(Call& c) {
  std::string action;
  c.Next(&action);
  if (action == "start" || action == "stop") {
    const bool enable = action == "start";
    if (c.s.dist != nullptr) return c.Reply(c.s.dist->SetFleetTracing(enable));
    if (enable) {
      metrics::TraceRecorder::Global().Enable();
    } else {
      metrics::TraceRecorder::Global().Disable();
    }
    return c.Ok();
  }
  if (action != "dump") return c.Usage();
  std::string path;
  if (!c.Next(&path)) return c.Usage("trace dump <file>");
  std::string trace_json;
  if (c.s.dist != nullptr) {
    StatusOr<std::string> merged = c.s.dist->DumpFleetTrace();
    if (!merged.ok()) return c.Fail(merged.status());
    trace_json = std::move(*merged);
  } else {
    trace_json = metrics::TraceRecorder::Global().DrainAsChromeTrace();
  }
  if (Status written = util::AtomicWriteFile(path, trace_json);
      !written.ok()) {
    return c.Fail(written);
  }
  c.Ok(std::to_string(trace_json.size()) + " bytes");
}

/// Narrows a health report to one join/frequency query (by shell name) or
/// one stream; false, after the refusal, when `target` is neither.
bool NarrowHealth(Call& c, const std::string& target, HealthReport* report) {
  const std::initializer_list<QueryKind> kinds = {QueryKind::kJoin,
                                                  QueryKind::kFreq};
  std::string subject;
  if (const NamedQuery* query = c.Find(target, kinds)) {
    subject = "query " + std::to_string(query->id);
    std::erase_if(report->queries, [&](const QueryHealth& health) {
      return health.id != query->id;
    });
    report->streams.clear();
  } else {
    const std::vector<std::string> streams = c.s.engine.StreamNames();
    if (std::find(streams.begin(), streams.end(), target) == streams.end()) {
      c.Fail(UnknownQuery(kinds) + " or stream: " + target);
      return false;
    }
    subject = "stream " + target;
    std::erase_if(report->streams, [&](const StreamHealth& stream) {
      return stream.stream != target;
    });
    report->queries.clear();
  }
  std::erase_if(report->findings, [&](const HealthFinding& finding) {
    return finding.subject != subject;
  });
  return true;
}

void RunHealth(Call& c) {
  std::string target;
  const bool narrow = c.Next(&target);
  if (c.s.dist != nullptr) {
    if (narrow) {
      return c.Fail(
          "health narrowing is not supported with a distributed backend");
    }
    return ReplyFleetFindings(c);
  }
  HealthReport report = c.s.engine.HealthReport();
  if (narrow && !NarrowHealth(c, target, &report)) return;
  // Multi-line: "ok" then the health tables and findings.
  c.Ok();
  c.out << RenderHealthReport(report);
}

void RunDoctor(Call& c) {
  if (c.s.dist != nullptr) return ReplyFleetFindings(c);
  const HealthReport report = c.s.engine.HealthReport();
  c.out << "ok " << report.findings.size() << "\n"
        << RenderHealthFindings(report.findings);
}

void RunAlerts(Call& c) {
  std::string rel_error_token, ci_width_token;
  double rel_error = 0.0, ci_width = 0.0;
  if (!c.Next(&rel_error_token) || !c.Next(&ci_width_token) ||
      !ParseDouble(rel_error_token, &rel_error) ||
      !ParseDouble(ci_width_token, &ci_width)) {
    return c.Usage("alerts <rel_error> <ci_width> (inf disables)");
  }
  c.s.engine.SetAccuracyDriftWarnThreshold(rel_error);
  c.s.engine.SetCiWarnRelWidth(ci_width);
  c.Ok();
}

void RunCache(Call& c) {
  std::string sub, name;
  c.Next(&sub);
  if (sub == "on" || sub == "off") {
    Engine::ReadPathOptions options = c.s.engine.read_path_options();
    options.use_query_cache = sub == "on";
    c.s.engine.SetReadPathOptions(options);
    return c.Ok();
  }
  if (sub != "status") return c.Usage();
  if (!c.Next(&name)) return c.Usage("cache status <q>");
  const NamedQuery* query =
      c.Resolve(name, {QueryKind::kJoin, QueryKind::kFreq});
  if (query == nullptr) return;
  StatusOr<Engine::QueryCacheStats> stats =
      c.s.engine.QueryCacheStatsFor(query->id);
  if (!stats.ok()) return c.Fail(stats.status());
  c.out << "ok cache=" << (stats->enabled ? "on" : "off");
  WriteCacheCounters(c.out, *stats);
}

// ---- the fleet -------------------------------------------------------------

/// `workers` refreshes health with one single-attempt probe per shard,
/// then renders the fleet table. `fleet`, the one-stop operator view, also
/// pulls each worker's new events into the local log (so a following
/// `logs --shard <k>` is fresh).
void ReplyShardTable(Call& c, bool scrape) {
  (void)c.s.dist->ProbeHealth();
  const Status scraped =
      scrape ? c.s.dist->ScrapeFleetEvents() : OkStatus();
  const std::vector<DistShardStatus> statuses = c.s.dist->ShardStatuses();
  c.out << "ok " << statuses.size() << (scrape ? " shards" : "");
  if (!scraped.ok() && scraped.code() != StatusCode::kUnimplemented) {
    c.out << " (event scrape incomplete)";
  }
  c.out << "\n";
  for (const DistShardStatus& status : statuses) {
    c.out << "  " << status.shard << " health=" << status.health
          << " incarnation=" << status.incarnation
          << " epoch=" << status.last_acked_epoch
          << " retries=" << status.rpc_retries
          << " failures=" << status.rpc_failures << "\n";
  }
}

void RunWorkers(Call& c) { ReplyShardTable(c, false); }

void RunFleet(Call& c) { ReplyShardTable(c, true); }

void RunShards(Call& c) {
  c.out << "ok " << c.s.dist->NumShards()
        << " routing=value%" << c.s.dist->NumShards();
  for (const DistShardStatus& status : c.s.dist->ShardStatuses()) {
    c.out << ' ' << status.shard;
  }
  c.out << "\n";
}

// ---- the session -----------------------------------------------------------

void RunHelp(Call& c) {
  c.Ok();
  for (const auto& [name, synopsis] : Shell::CommandHelp()) {
    c.out << "  " << synopsis << "\n";
  }
}

void RunQuit(Call& c) {
  c.Ok();
  c.keep_going = false;
}

/// Every command, in `help` order. kLocal commands would silently act on
/// the shell's empty engine with a backend attached, so they are refused
/// there; kFleet commands need one.
constexpr Command kCommands[] = {
    {"stream", "stream <name> <domain>", "register a stream", Scope::kEither,
     RunStream},
    {"join", "join <q> <left> <right> <method> <space>",
     "standing join query (agms | hash-sketch | skimmed | count-min | "
     "sampling)",
     Scope::kEither, RunJoin},
    {"selfjoin", "selfjoin <q> <stream> <method> <space>",
     "standing self-join query", Scope::kEither, RunSelfJoin},
    {"freq", "freq <q> <stream> <space>", "point/heavy-hitter tracking",
     Scope::kEither, RunFreq},
    {"distinct", "distinct <q> <stream> <maps>", "COUNT DISTINCT",
     Scope::kLocal, RunDistinct},
    {"topk", "topk <q> <stream> <k> <space>", "continuous top-k",
     Scope::kLocal, RunTopK},
    {"top", "top <q>", "current top-k answer", Scope::kLocal, RunTop},
    {"quantile", "quantile <q> <stream> <epsilon>",
     "deterministic GK quantiles", Scope::kLocal, RunQuantile},
    {"phi", "phi <q> <phi>", "current quantile answer", Scope::kLocal, RunPhi},
    {"update", "update <stream> <value> [count] [measure]",
     "feed one element", Scope::kEither, RunUpdate},
    {"load", "load <stream> <trace-path>",
     "replay a trace file as one batch (out-of-domain values are dropped and "
     "counted)",
     Scope::kLocal, RunLoad},
    {"answer", "answer <q>", "current join/self-join/distinct estimate",
     Scope::kEither, RunAnswer},
    {"explain", "explain <q>",
     "join estimate with provenance (copies, CI, a-priori bound, skim "
     "diagnostics)",
     Scope::kEither, RunExplain},
    {"point", "point <q> <value>", "point-frequency estimate", Scope::kEither,
     RunPoint},
    {"heavy", "heavy <q> <threshold>", "heavy hitters above threshold",
     Scope::kLocal, RunHeavy},
    {"count", "count <stream>", "net elements seen", Scope::kLocal, RunCount},
    {"seed", "seed <n>", "seed for subsequent queries", Scope::kEither,
     RunSeed},
    {"checkpoint", "checkpoint <path>", "save engine + query names",
     Scope::kEither, RunCheckpoint},
    {"restore", "restore <path> [partial]",
     "restore a checkpoint into an empty shell", Scope::kLocal, RunRestore},
    {"streams", "streams", "per-stream ingest stats", Scope::kLocal,
     RunStreams},
    {"stats", "stats", "engine-wide totals", Scope::kLocal, RunStats},
    {"metrics", "metrics [fleet] [json|prom]",
     "metrics snapshot (fleet: merged per-shard series, shard=\"<k>\" "
     "labels; prom is multi-line)",
     Scope::kEither, RunMetrics},
    {"logs", "logs [n] [debug|info|warn|error] [--shard <k>]",
     "last n (default 10) events at or above the level as JSON lines; "
     "--shard keeps only events scraped from worker k",
     Scope::kEither, RunLogs},
    {"workers", "workers",
     "per-shard health/incarnation/epoch (distributed backend)",
     Scope::kFleet, RunWorkers},
    {"shards", "shards", "shard fan-out and routing (distributed backend)",
     Scope::kFleet, RunShards},
    {"fleet", "fleet",
     "probe every shard, scrape its events, and render the fleet table "
     "(distributed backend)",
     Scope::kFleet, RunFleet},
    {"trace", "trace start|stop|dump <file>",
     "toggle trace recording / write the Chrome trace (fleet-wide with a "
     "distributed backend)",
     Scope::kEither, RunTrace},
    {"health", "health [<q>|<stream>]",
     "stream profiles, synopsis probes, and findings (fleet findings with a "
     "distributed backend); the optional argument narrows to one query or "
     "stream",
     Scope::kEither, RunHealth},
    {"doctor", "doctor",
     "just the rule-based findings, one line each (fleet-wide with a "
     "distributed backend)",
     Scope::kEither, RunDoctor},
    {"alerts", "alerts <rel_error> <ci_width>",
     "warn-event thresholds for accuracy drift / CI blow-up (inf disables)",
     Scope::kLocal, RunAlerts},
    {"cache", "cache <on|off> | cache status <q>",
     "epoch-invalidated query cache (read path)", Scope::kLocal, RunCache},
    {"help", "help", "print this list", Scope::kEither, RunHelp},
    {"quit", "quit", "stop reading commands", Scope::kEither, RunQuit},
};

}  // namespace

Shell::Shell() : state_(std::make_unique<ShellState>()) {}

Shell::~Shell() = default;

void Shell::set_always_explain(bool enabled) {
  state_->always_explain = enabled;
}

void Shell::set_dist_backend(DistBackend* backend) { state_->dist = backend; }

const Engine& Shell::engine() const { return state_->engine; }

const std::vector<std::pair<std::string, std::string>>& Shell::CommandHelp() {
  static const auto* help = [] {
    auto* list = new std::vector<std::pair<std::string, std::string>>;
    for (const Command& command : kCommands) {
      list->emplace_back(command.name, std::string(command.syntax) + " — " +
                                           command.summary);
    }
    return list;
  }();
  return *help;
}

bool Shell::ExecuteLine(const std::string& line, std::ostream& out) {
  std::istringstream fields(line);
  std::vector<std::string> tokens;
  for (std::string token; fields >> token;) tokens.push_back(token);
  if (tokens.empty() || tokens[0][0] == '#') return true;
  const Command* command = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const Command& entry) { return tokens[0] == entry.name; });
  if (command == std::end(kCommands)) {
    out << "error: unknown command: " << tokens[0] << " (try `help`)\n";
  } else if (command->scope == Scope::kLocal && state_->dist != nullptr) {
    out << "error: `" << command->name
        << "` is not supported with a distributed backend attached\n";
  } else if (command->scope == Scope::kFleet && state_->dist == nullptr) {
    out << "error: no distributed backend attached\n";
  } else {
    Call call(*state_, *command, std::move(tokens), out);
    command->run(call);
    return call.keep_going;
  }
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
