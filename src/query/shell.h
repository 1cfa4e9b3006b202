// A line-oriented command shell around query::Engine, powering the
// `skimjoin_cli` tool (tools/skimjoin_cli.cc) and scriptable experiments.
//
// One command per line; '#' starts a comment. The command table in
// shell.cc lists every command once: its name, the synopsis `help` prints
// (Shell::CommandHelp), where it may run (the local engine only, only with
// a distributed backend attached, or either) and its handler. `help` is the
// command list.
//
// Every command answers on one line: "ok[ <payload>]" or "error: <reason>".
// Exceptions: `metrics prom`, `explain`, `health`, `logs`, `workers`,
// `fleet`, and `help` answer "ok" and then inherently multi-line text
// (Prometheus exposition, the provenance and health tables, JSON event
// lines, the fleet table, the command list).
// A numeric argument parses whole or is refused with the command's usage
// error: "2x" is not 2, and an unsigned field takes no sign.
// Unknown queries/streams are reported, never fatal; the shell only stops
// at end of input (or the `quit` command).

#ifndef SKIMJOIN_QUERY_SHELL_H_
#define SKIMJOIN_QUERY_SHELL_H_

#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "query/engine.h"

namespace skimjoin {
namespace query {

class DistBackend;
/// The engine, backend and query names the command handlers share
/// (shell.cc).
struct ShellState;

/// Executes shell commands against an owned Engine — or, when a
/// DistBackend is attached, against a fleet of worker shards (the engine-
/// shaped commands route to the backend; engine-local ones report an
/// error).
class Shell {
 public:
  Shell();
  ~Shell();

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
  void set_always_explain(bool enabled);

  /// Attaches a distributed backend (not owned; must outlive the shell).
  /// While attached, the engine-shaped commands route to the backend, the
  /// local-only ones are refused, and the fleet-only ones come alive (each
  /// command's scope is in the table). Pass nullptr to detach.
  void set_dist_backend(DistBackend* backend);

  /// The command registry behind `help`: every dispatched command name with
  /// its one-line synopsis, in help order. Static so tests can cross-check
  /// the `help` output (and the dispatcher) against it.
  static const std::vector<std::pair<std::string, std::string>>&
  CommandHelp();

  const Engine& engine() const;

 private:
  std::unique_ptr<ShellState> state_;
  std::function<void()> post_command_hook_;
};

}  // namespace query
}  // namespace skimjoin

#endif  // SKIMJOIN_QUERY_SHELL_H_
