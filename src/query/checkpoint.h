// Options and report types for engine checkpoint/restore (the
// implementation lives in checkpoint.cc as Engine member functions; the
// entry points are Engine::SaveCheckpoint / Engine::RestoreCheckpoint in
// engine.h).
//
// A checkpoint is a durable file (util/durable_file.h) holding:
//   section "manifest"     — versioned text manifest: streams, relations,
//                            ingest stats, every query's spec record
//                            (query/spec_codec.h) + seed (with a
//                            supported/unsupported flag), engine counters
//   section "meta:<key>"   — one per caller-provided metadata entry
//   section "query:<id>"   — the serialized synopsis of each supported
//                            query, ascending by id
// Every section rides the durable file's CRC + end-marker framing, and the
// whole file is committed atomically (temp → fsync → rename), so a crash
// during save can never clobber the previous checkpoint.
//
// Query kinds whose synopses cannot be serialized (sampling and
// partitioned-AGMS join estimators) are LISTED in the manifest as
// unsupported — never silently skipped. A strict restore of a
// checkpoint containing one fails with UNIMPLEMENTED; with
// RestoreOptions{.allow_partial = true} the restore instead recovers every
// intact synopsis, re-registers what it can as empty, and reports each
// loss in RestoreReport::lost.

#ifndef SKIMJOIN_QUERY_CHECKPOINT_H_
#define SKIMJOIN_QUERY_CHECKPOINT_H_

#include <map>
#include <string>
#include <vector>

#include "query/query.h"

namespace skimjoin {
namespace query {

/// How Engine::RestoreCheckpoint treats queries it cannot fully recover.
struct RestoreOptions {
  /// false (default): any unrecoverable query — an unsupported kind in the
  /// manifest, or a missing/corrupt synopsis section — fails the whole
  /// restore and leaves the engine empty. true: recover every intact
  /// synopsis, re-register lossy queries with empty synopses where
  /// possible, and report each loss.
  bool allow_partial = false;
};

/// One query the restore could not fully recover.
struct RestoreLoss {
  QueryId query = 0;
  /// Manifest kind ("join", "chain", ...).
  std::string kind;
  /// Human-readable explanation (what was lost, and whether the query was
  /// re-registered empty or dropped entirely).
  std::string reason;
};

/// What Engine::RestoreCheckpoint recovered.
struct RestoreReport {
  /// Queries restored without their synopsis state (or not at all) —
  /// empty on a full-fidelity restore.
  std::vector<RestoreLoss> lost;
  /// The metadata map passed to SaveCheckpoint, round-tripped.
  std::map<std::string, std::string> metadata;
};

}  // namespace query
}  // namespace skimjoin

#endif  // SKIMJOIN_QUERY_CHECKPOINT_H_
