// The one multi-threaded ingestor: worker replicas of a linear synopsis,
// propagated into a shared synopsis with bounded staleness. It adapts the
// relaxed-consistency concurrent sketches of Rinberg & Keidar (PODC '20)
// to exact linear synopses:
//
//   * Each worker owns a private replica synopsis. AbsorbBatch chunks the
//     batch across workers and returns WITHOUT waiting — ingestion truly
//     overlaps the caller and any concurrent readers.
//   * Workers fold elements into their replica lock-free (it is theirs
//     alone) and periodically PROPAGATE: take the shared synopsis's writer
//     lock, Merge the replica in, zero it, and advance the epoch counter.
//     Because Merge is plain counter addition (linearity), the shared state
//     after any prefix of propagations equals a sequential ingest of
//     exactly the propagated elements — relaxation costs staleness, never
//     accuracy.
//   * Readers take a shared (reader) lock and see a CONSISTENT snapshot:
//     whole replicas enter atomically under the writer lock, so a reader
//     can never observe half a propagation (the bounded-staleness
//     invariant concurrent_ingest_test.cc asserts via CountMin row sums).
//   * Staleness is bounded two ways: workers self-propagate every
//     `propagation_interval_elements`, and once the global un-propagated
//     backlog exceeds `max_lag_elements` a worker escalates from
//     try_lock (contention-shy) to a blocking writer lock.
//   * Flush() is the exact linearization point: barrier the pool, then
//     merge every replica under one writer lock. Afterwards the shared
//     synopsis is counter-for-counter identical to a sequential ingest of
//     everything ever submitted, and epoch_lag() == 0. Synchronous sharded
//     ingest is this ingestor flushed after every batch
//     (query::Engine::UpdateBatch with shards > 1 and concurrent off).
//
// Replicas are constructed on their worker threads, so their counter
// pages are first touched by the thread that updates them.
//
// Concurrency contract:
//   * One driving thread calls AbsorbBatch / Flush / stats-mutating calls.
//   * Any number of threads may hold ReaderLock() and read shared()
//     concurrently with ingestion.
//   * The shared synopsis must not be mutated except through this ingestor
//     while the ingestor is live, or under WriterLock(). The engine's one
//     ingest fan-out does the latter for one-element projections (every
//     scalar Update, and any batch a predicate narrows to one element):
//     it updates the shared synopsis directly under the writer lock
//     instead of paying a worker hand-off for one element.

#ifndef SKIMJOIN_INGEST_CONCURRENT_INGESTOR_H_
#define SKIMJOIN_INGEST_CONCURRENT_INGESTOR_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ingest/ingest_stats.h"
#include "ingest/worker_pool.h"
#include "stream/stream_element.h"
#include "util/metrics.h"
#include "util/status.h"

namespace skimjoin {
namespace ingest {

/// Most worker threads one ConcurrentIngestor starts, and so most ingest
/// shards an engine accepts: far above any core count this runs on, and
/// low enough that a corrupt configuration or checkpoint cannot start
/// thousands of threads.
constexpr uint64_t kMaxIngestWorkers = 256;

/// Tuning knobs for one ConcurrentIngestor.
struct ConcurrentIngestOptions {
  /// Worker threads (and private replicas): 1..kMaxIngestWorkers.
  uint64_t num_workers = 2;
  /// A worker volunteers a propagation after folding this many elements
  /// since its last one. Smaller = fresher reads, more lock traffic.
  uint64_t propagation_interval_elements = 1 << 16;
  /// Hard staleness bound: once submitted-but-unpropagated elements exceed
  /// this, the next worker to notice propagates with a BLOCKING writer
  /// lock instead of politely skipping on contention.
  uint64_t max_lag_elements = 1 << 20;
};

/// Relaxed-consistency concurrent ingestor over any linear synopsis.
/// `Synopsis` must be copyable and provide UpdateBatch(span), Reset(), and
/// Merge(const Synopsis&) — HashSketch, AgmsSketch, CountMinSketch, and
/// SkimmedSketch all qualify. A synopsis with dropped_updates() has its
/// replicas' drops folded into stats().
///
/// Heap-only (std::shared_mutex pins the address); use Create.
template <typename Synopsis>
class ConcurrentIngestor {
 public:
  using ReadLock = std::shared_lock<std::shared_mutex>;
  using WriteLock = std::unique_lock<std::shared_mutex>;

  /// Builds workers and their replicas (copies of `*shared`, zeroed).
  /// Replica construction happens ON each worker thread. `shared` must
  /// outlive the ingestor and is the synopsis readers query.
  static StatusOr<std::unique_ptr<ConcurrentIngestor>> Create(
      Synopsis* shared, ConcurrentIngestOptions options = {}) {
    if (shared == nullptr) {
      return InvalidArgumentError(
          "ConcurrentIngestor requires a shared synopsis");
    }
    if (options.num_workers < 1) {
      return InvalidArgumentError(
          "ConcurrentIngestor requires num_workers >= 1");
    }
    if (options.num_workers > kMaxIngestWorkers) {
      return InvalidArgumentError(
          "ConcurrentIngestor takes at most " +
          std::to_string(kMaxIngestWorkers) + " workers");
    }
    if (options.propagation_interval_elements < 1) {
      return InvalidArgumentError(
          "propagation_interval_elements must be >= 1");
    }
    auto ingestor = std::unique_ptr<ConcurrentIngestor>(
        new ConcurrentIngestor(shared, options));
    // First-touch: each worker constructs (and zeroes) its own replica.
    for (uint64_t w = 0; w < options.num_workers; ++w) {
      ingestor->pool_->Submit(w, [state = ingestor->workers_[w].get(),
                                  prototype = shared] {
        state->replica.emplace(*prototype);
        state->replica->Reset();
      });
    }
    ingestor->pool_->Barrier();
    return ingestor;
  }

  /// Flushes outstanding work so the shared synopsis ends exact, then
  /// joins the pool (pool_ is declared last, destroyed first).
  ~ConcurrentIngestor() { Flush(); }

  ConcurrentIngestor(const ConcurrentIngestor&) = delete;
  ConcurrentIngestor& operator=(const ConcurrentIngestor&) = delete;

  /// Chunks `elements` across workers and returns immediately — the copy
  /// into per-task buffers is the only synchronous cost. Visibility of
  /// these elements to readers lags by at most max_lag_elements (plus one
  /// in-flight chunk per worker).
  void AbsorbBatch(std::span<const stream::StreamElement> elements) {
    if (elements.empty()) return;
    stats_.batches += 1;
    stats_.elements_absorbed += elements.size();
    submitted_elements_.fetch_add(elements.size(), std::memory_order_relaxed);

    const uint64_t workers = workers_.size();
    // Round-robin contiguous chunks; small batches go whole to one worker
    // (rotating so a stream of small batches still uses every worker).
    uint64_t shards = workers;
    while (shards > 1 && elements.size() / shards < kMinChunkElements) {
      --shards;
    }
    const uint64_t chunk = elements.size() / shards;
    for (uint64_t s = 0; s < shards; ++s) {
      const uint64_t begin = s * chunk;
      const uint64_t end = (s + 1 == shards) ? elements.size() : begin + chunk;
      const uint64_t w = (next_worker_ + s) % workers;
      pool_->Submit(
          w, [this, state = workers_[w].get(),
              copy = std::vector<stream::StreamElement>(
                  elements.begin() + static_cast<ptrdiff_t>(begin),
                  elements.begin() + static_cast<ptrdiff_t>(end))] {
            state->replica->UpdateBatch(copy);
            state->pending += copy.size();
            MaybePropagate(state);
          });
    }
    next_worker_ = (next_worker_ + shards) % workers;
  }

  /// Exact linearization point: waits for every in-flight chunk, then
  /// merges all replicas under one writer lock. Afterwards shared() equals
  /// a sequential ingest of everything submitted and epoch_lag() == 0.
  /// stats() gains one merge, the wait as absorb_nanos, and the merge as
  /// merge_nanos.
  void Flush() {
    metrics::TraceSpan span("replica_merge", "ingest");
    const auto start = std::chrono::steady_clock::now();
    pool_->Barrier();
    const auto absorbed = std::chrono::steady_clock::now();
    stats_.merges += 1;
    {
      WriteLock lock(mu_);
      for (const std::unique_ptr<WorkerState>& state : workers_) {
        PropagateLocked(state.get());
      }
    }
    stats_.absorb_nanos += Nanos(absorbed - start);
    stats_.merge_nanos += Nanos(std::chrono::steady_clock::now() - absorbed);
    // Drops counted inside replicas were never truly absorbed. Saturate
    // instead of underflowing the unsigned absorbed count: a replica can
    // carry drops this ingestor never counted (a synopsis whose Reset
    // keeps its drop counter).
    const uint64_t dropped = dropped_elements_.load(std::memory_order_relaxed);
    const uint64_t newly_dropped = dropped - stats_.elements_dropped;
    stats_.elements_dropped = dropped;
    stats_.elements_absorbed -=
        std::min(newly_dropped, stats_.elements_absorbed);
  }

  /// Shared (reader) lock over the shared synopsis. Hold it across the
  /// whole read — point queries, SlimView refresh, serialization.
  ReadLock ReaderLock() const { return ReadLock(mu_); }

  /// Writer lock for callers that must mutate the shared synopsis directly
  /// (the engine's one-element projections, Clear). Excludes propagations
  /// and readers.
  WriteLock WriterLock() const { return WriteLock(mu_); }

  /// The synopsis readers see; callers must hold ReaderLock (or
  /// WriterLock) while touching it.
  const Synopsis& shared() const { return *shared_; }

  /// Elements accepted by AbsorbBatch but not yet visible to readers.
  /// Zero immediately after Flush.
  uint64_t epoch_lag() const {
    const uint64_t submitted =
        submitted_elements_.load(std::memory_order_relaxed);
    const uint64_t propagated =
        propagated_elements_.load(std::memory_order_relaxed);
    return submitted - std::min(propagated, submitted);
  }

  /// Monotone count of completed propagations (replica → shared merges).
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  uint64_t num_workers() const { return workers_.size(); }
  const IngestStats& stats() const { return stats_; }

  /// Below this many elements per chunk, fan-out stops paying for the
  /// task + copy overhead and the batch collapses onto fewer workers.
  static constexpr uint64_t kMinChunkElements = 1024;

 private:
  struct WorkerState {
    /// Deferred-constructed so it can be built on the worker thread.
    std::optional<Synopsis> replica;
    /// Elements folded into `replica` since its last propagation. Written
    /// by the owning worker and, under the writer lock, by Flush.
    uint64_t pending = 0;
  };

  ConcurrentIngestor(Synopsis* shared, const ConcurrentIngestOptions& options)
      : shared_(shared), options_(options) {
    workers_.reserve(options.num_workers);
    for (uint64_t w = 0; w < options.num_workers; ++w) {
      workers_.push_back(std::make_unique<WorkerState>());
    }
    pool_ = std::make_unique<WorkerPool>(options.num_workers);
  }

  static uint64_t Nanos(std::chrono::steady_clock::duration elapsed) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  }

  /// Worker-side propagation policy: volunteer at the interval, insist
  /// past the lag bound, otherwise stand down on contention.
  void MaybePropagate(WorkerState* state) {
    if (state->pending == 0) return;
    const bool overdue = epoch_lag() > options_.max_lag_elements;
    if (state->pending < options_.propagation_interval_elements && !overdue) {
      return;
    }
    WriteLock lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) {
      if (!overdue) return;  // Contended and within bounds: try next chunk.
      lock = WriteLock(mu_);
    }
    PropagateLocked(state);
  }

  /// Requires mu_ held exclusively. Merges and zeroes one replica,
  /// advancing the epoch so readers can detect progress.
  void PropagateLocked(WorkerState* state) {
    if (state->pending == 0) return;
    if constexpr (requires(const Synopsis& s) { s.dropped_updates(); }) {
      // Drops counted inside the replica were never truly absorbed; Flush
      // folds them into stats().
      const uint64_t dropped = state->replica->dropped_updates();
      dropped_elements_.fetch_add(dropped, std::memory_order_relaxed);
    }
    shared_->Merge(*state->replica);
    state->replica->Reset();
    propagated_elements_.fetch_add(state->pending, std::memory_order_relaxed);
    state->pending = 0;
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  Synopsis* const shared_;
  const ConcurrentIngestOptions options_;

  /// Guards shared_ plus every WorkerState's replica/pending during
  /// propagation. Readers share; propagations and Flush are exclusive.
  mutable std::shared_mutex mu_;

  std::vector<std::unique_ptr<WorkerState>> workers_;
  /// Driver-thread rotation point for small-batch placement.
  uint64_t next_worker_ = 0;

  std::atomic<uint64_t> submitted_elements_{0};
  std::atomic<uint64_t> propagated_elements_{0};
  std::atomic<uint64_t> dropped_elements_{0};
  std::atomic<uint64_t> epoch_{0};
  IngestStats stats_;

  /// Declared LAST: destroyed first, joining all workers before the
  /// replicas and shared-synopsis pointer they use go away.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace ingest
}  // namespace skimjoin

#endif  // SKIMJOIN_INGEST_CONCURRENT_INGESTOR_H_
