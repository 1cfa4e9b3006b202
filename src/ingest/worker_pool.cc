#include "ingest/worker_pool.h"

#include <utility>

namespace skimjoin {
namespace ingest {

WorkerPool::WorkerPool(uint64_t num_workers) {
  if (num_workers < 1) num_workers = 1;
  workers_.reserve(num_workers);
  for (uint64_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Threads start only after the workers_ vector is fully built — WorkerLoop
  // indexes into it.
  for (uint64_t i = 0; i < num_workers; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

WorkerPool::~WorkerPool() {
  for (const std::unique_ptr<Worker>& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->stop = true;
    }
    worker->cv.notify_all();
  }
  for (const std::unique_ptr<Worker>& worker : workers_) {
    worker->thread.join();
  }
}

void WorkerPool::Submit(uint64_t worker_index, std::function<void()> task) {
  Worker& worker = *workers_[worker_index % workers_.size()];
  submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    worker.tasks.push_back(std::move(task));
  }
  worker.cv.notify_one();
}

void WorkerPool::Barrier() {
  // Submit and Barrier share one driving thread, so `submitted_` cannot
  // move underneath the wait.
  const uint64_t target = submitted_.load(std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(barrier_mu_);
  barrier_cv_.wait(lock, [this, target] {
    return completed_.load(std::memory_order_acquire) >= target;
  });
}

void WorkerPool::WorkerLoop(uint64_t index) {
  Worker& self = *workers_[index];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(self.mu);
      self.cv.wait(lock, [&self] { return self.stop || !self.tasks.empty(); });
      // Drain the queue before honoring stop so ~WorkerPool never abandons
      // submitted work.
      if (self.tasks.empty()) return;
      task = std::move(self.tasks.front());
      self.tasks.pop_front();
    }
    task();
    // The release store pairs with Barrier's acquire load: everything the
    // task wrote is visible to a driver that has seen the count.
    completed_.fetch_add(1, std::memory_order_release);
    {
      // Empty critical section: forces the notify to serialize against a
      // Barrier() that has checked the predicate but not yet slept.
      std::lock_guard<std::mutex> lock(barrier_mu_);
    }
    barrier_cv_.notify_all();
  }
}

}  // namespace ingest
}  // namespace skimjoin
