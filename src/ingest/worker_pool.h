// A small persistent worker pool with per-worker task queues.
//
// ConcurrentIngestor needs N long-lived threads, each permanently bound to
// one replica, that accept closures from a single driving thread and
// report global quiescence. Spawning std::thread per batch would cost a
// clone+join round trip per worker per batch — microseconds that dominate
// once the per-worker chunk shrinks toward the ingestor's minimum chunk.
// The pool amortizes thread creation across the ingestor's lifetime.
//
// Shape:
//   * One FIFO deque + mutex + condvar PER WORKER, not a shared run queue:
//     tasks are shard-addressed (replica i only ever runs on worker i), so
//     a shared queue would buy nothing and cost cross-thread contention.
//   * Submit(worker, fn) enqueues; it never blocks on task execution.
//   * Barrier() blocks the driver until every task submitted so far has
//     finished, and carries the release/acquire edge that lets the driver
//     read worker-written state (replica contents) afterwards.
//   * Single driver: Submit/Barrier must be called from one thread at a
//     time (matching the single-writer ingestion model in DESIGN.md §13).

#ifndef SKIMJOIN_INGEST_WORKER_POOL_H_
#define SKIMJOIN_INGEST_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace skimjoin {
namespace ingest {

class WorkerPool {
 public:
  /// Starts `num_workers` threads immediately (num_workers >= 1 is
  /// clamped). Workers idle on their condvars until tasks arrive.
  explicit WorkerPool(uint64_t num_workers);

  /// Joins all workers. Tasks already submitted are drained first, so a
  /// destructor-ordered member pool (declared last in its owner) gives the
  /// owner's other members a clean happens-after-all-tasks teardown.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues `task` on worker `worker` (mod num_workers). Returns without
  /// waiting for execution.
  void Submit(uint64_t worker, std::function<void()> task);

  /// Blocks until every task submitted before this call has completed.
  /// Establishes happens-before from all completed tasks to the caller.
  void Barrier();

  uint64_t num_workers() const { return workers_.size(); }

 private:
  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> tasks;
    bool stop = false;
    std::thread thread;
  };

  void WorkerLoop(uint64_t index);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
};

}  // namespace ingest
}  // namespace skimjoin

#endif  // SKIMJOIN_INGEST_WORKER_POOL_H_
