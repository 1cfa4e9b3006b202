// A line-oriented command shell around query::Engine, powering the
// `skimjoin_cli` tool (tools/skimjoin_cli.cc) and scriptable experiments.
//
// Commands (one per line; '#' starts a comment):
//   stream <name> <domain>                    register a stream
//   join <q> <left> <right> <method> <space>  standing join query
//                                             (method: agms | hash-sketch |
//                                              skimmed | count-min | sampling)
//   selfjoin <q> <stream> <method> <space>    standing self-join query
//   freq <q> <stream> <space>                 point/heavy-hitter tracking
//   distinct <q> <stream> <maps>              COUNT DISTINCT tracking
//   topk <q> <stream> <k> <space>             continuous top-k tracking
//   top <q>                                   current top-k answer
//   quantile <q> <stream> <epsilon>           deterministic GK quantiles
//   phi <q> <phi>                             current quantile answer
//   update <stream> <value> [count] [measure] feed one element
//   load <stream> <trace-path>                replay a trace file (§ trace_io)
//   answer <q>                                current join/self-join estimate
//   point <q> <value>                         point-frequency estimate
//   heavy <q> <threshold>                     heavy hitters above threshold
//   count <stream>                            net elements seen
//   seed <n>                                  seed for subsequent queries
//   checkpoint <path>                         save engine + query names
//   restore <path> [partial]                  restore a checkpoint into an
//                                             empty shell (`partial` keeps
//                                             whatever sections are intact)
//   streams                                   per-stream ingest stats (incl.
//                                             absorb/merge timing)
//   stats                                     engine-wide totals
//   metrics [fleet] [json|prom]               metrics snapshot; `json` (the
//                                             default) answers on one line,
//                                             `prom` emits the multi-line
//                                             Prometheus text format. With a
//                                             distributed backend, both forms
//                                             merge every shard's snapshot in
//                                             (series labeled shard="<k>");
//                                             a backend without the fleet
//                                             path answers coordinator-local
//                                             metrics plus a banner line
//                                             saying so
//   explain <q>                               join/self-join estimate with
//                                             full provenance (per-copy
//                                             estimates, CI, a-priori bound,
//                                             skim diagnostics)
//   logs [n] [debug|info|warn|error]          last n (default 10) structured
//        [--shard <k>]                        events at or above the given
//                                             level as JSON lines; --shard
//                                             keeps only events scraped from
//                                             worker k (origin_shard field)
//   workers                                   per-shard health/incarnation/
//                                             epoch (distributed backend)
//   shards                                    shard fan-out and routing
//                                             (distributed backend)
//   fleet                                     probe every shard, scrape its
//                                             events into the local log, and
//                                             render the fleet table
//                                             (distributed backend)
//   trace start|stop|dump <file>              toggle trace recording / write
//                                             the Chrome trace; with a
//                                             distributed backend the toggle
//                                             fans out to every worker and
//                                             dump merges every process's
//                                             spans on one clock-aligned
//                                             timeline
//   alerts <rel_error> <ci_width>             warn-event thresholds for
//                                             accuracy drift and CI blow-up
//                                             (`inf` disables one)
//   cache <on|off>                            toggle the epoch-invalidated
//                                             query cache (read path)
//   cache status <q>                          cache hit/miss/invalidation
//                                             counters for one query
//   help                                      print this list
//
// Every command answers on one line: "ok[ <payload>]" or "error: <reason>".
// Exceptions: `metrics prom`, `explain`, `logs`, `workers`, `fleet`, and
// `help` answer "ok" and then inherently multi-line text (Prometheus
// exposition, the provenance table, JSON event lines, the fleet table, the
// command list).
// Unknown queries/streams are reported, never fatal; the shell only stops
// at end of input (or the `quit` command).
//
// The command registry (Shell::CommandHelp) is the single source of truth
// for `help`; tests cross-check that every dispatched command is listed.

#ifndef SKIMJOIN_QUERY_SHELL_H_
#define SKIMJOIN_QUERY_SHELL_H_

#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "query/engine.h"

namespace skimjoin {
namespace query {

class DistBackend;

/// Executes shell commands against an owned Engine — or, when a
/// DistBackend is attached, against a fleet of worker shards (the engine-
/// shaped commands route to the backend; engine-local ones report an
/// error).
class Shell {
 public:
  Shell() = default;

  /// Executes one command line; writes exactly one response line to `out`.
  /// Blank lines and comments produce no output. Returns false when the
  /// command was `quit` (callers should stop feeding lines).
  bool ExecuteLine(const std::string& line, std::ostream& out);

  /// Reads commands from `in` until EOF or `quit`. Returns the number of
  /// commands that reported an error (0 for a fully clean script).
  int Run(std::istream& in, std::ostream& out);

  /// Invoked on the shell thread after every line Run executes. The CLI
  /// uses this to refresh the engine's metrics gauges between commands so
  /// a background PeriodicSnapshotWriter only ever touches the registry
  /// (engine().metrics_registry().TakeSnapshot()) — the engine itself is
  /// single-writer and must not be walked concurrently. Pass nullptr to
  /// remove.
  void set_post_command_hook(std::function<void()> hook) {
    post_command_hook_ = std::move(hook);
  }

  /// When enabled (CLI --explain), every `answer` on a join/self-join query
  /// also renders the full EstimateReport table after the one-line answer,
  /// exactly as `explain <q>` would.
  void set_always_explain(bool enabled) { always_explain_ = enabled; }

  /// Attaches a distributed backend (not owned; must outlive the shell).
  /// While attached, stream/join/selfjoin/freq/update/answer/explain/point,
  /// checkpoint, and metrics route to the backend, and the `workers` /
  /// `shards` commands come alive. Pass nullptr to detach.
  void set_dist_backend(DistBackend* backend) { dist_ = backend; }

  /// The command registry behind `help`: every dispatched command name with
  /// its one-line synopsis, in help order. Static so tests can cross-check
  /// the `help` output (and the dispatcher) against it.
  static const std::vector<std::pair<std::string, std::string>>&
  CommandHelp();

  const Engine& engine() const { return engine_; }

 private:
  /// Registers a query on the attached backend, else on the local engine,
  /// with the next query seed (see `seed <n>`).
  StatusOr<QueryId> AddQuery(const QuerySpec& spec);

  Engine engine_;
  DistBackend* dist_ = nullptr;
  std::function<void()> post_command_hook_;
  bool always_explain_ = false;
  /// A named query: its kind (join, freq, distinct, topk or quantile, as
  /// in the checkpoint metadata keys `shell.<kind>.<name>`) and engine id.
  struct NamedQuery {
    std::string kind;
    QueryId id = 0;
  };
  /// Every query name, whatever its kind: a name names one query.
  std::unordered_map<std::string, NamedQuery> query_names_;
  uint64_t next_seed_ = 1;
};

}  // namespace query
}  // namespace skimjoin

#endif  // SKIMJOIN_QUERY_SHELL_H_
