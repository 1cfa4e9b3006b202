// Observability counters for the batched / sharded ingestion pipeline
// (ingest/concurrent_ingestor.h and query::Engine::UpdateBatch).

#ifndef SKIMJOIN_INGEST_INGEST_STATS_H_
#define SKIMJOIN_INGEST_INGEST_STATS_H_

#include <cstdint>
#include <string>

namespace skimjoin {
namespace ingest {

/// Running totals for one ingestion pipeline (or one engine stream).
/// Plain counters — callers that share a pipeline across threads must
/// serialize access, matching the single-writer model documented in
/// DESIGN.md.
struct IngestStats {
  /// Stream elements absorbed into replicas / synopses.
  uint64_t elements_absorbed = 0;
  /// Batches accepted (AbsorbBatch / UpdateBatch calls).
  uint64_t batches = 0;
  /// Elements dropped before any synopsis saw them (out-of-domain values).
  uint64_t elements_dropped = 0;
  /// Replica-merge flushes performed.
  uint64_t merges = 0;
  /// Wall time flushes spent waiting for workers to finish absorbing.
  uint64_t absorb_nanos = 0;
  /// Wall time flushes spent merging replicas into the shared synopsis.
  uint64_t merge_nanos = 0;
  /// Hash plan-cache probes that hit / missed across the stream's
  /// frequency-query synopses (inline ingest path; worker replicas keep
  /// their caches worker-local). Zero under sketch::Kernel::kReference.
  uint64_t hash_cache_hits = 0;
  uint64_t hash_cache_misses = 0;

  /// One-line human-readable rendering for logs and the bench harness.
  std::string ToString() const;
};

}  // namespace ingest
}  // namespace skimjoin

#endif  // SKIMJOIN_INGEST_INGEST_STATS_H_
