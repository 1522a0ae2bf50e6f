#ifndef FLOCK_COMMON_THREAD_POOL_H_
#define FLOCK_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace flock {

/// Fixed-size worker pool.
///
/// The SQL executor uses this for morsel-driven parallelism: a table scan is
/// chopped into morsels and each worker pulls batches through its pipeline.
/// This is the mechanism behind the paper's "automatic parallelization of the
/// inference task in SQL Server" (Figure 4, up to 5.5x over standalone ORT).
class ThreadPool {
 public:
  /// Creates `num_threads` workers (>= 1; 0 means hardware concurrency).
  /// `max_queue_depth` bounds the number of *queued* (not yet running)
  /// tasks that TrySubmit will accept; 0 = unbounded. Submit ignores the
  /// bound — only TrySubmit sheds.
  explicit ThreadPool(size_t num_threads, size_t max_queue_depth = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Bounded-queue submission for admission control: enqueues `task`
  /// unless the pending queue is at `max_queue_depth` (or the pool is
  /// shutting down), in which case it returns false without blocking and
  /// the task is dropped.
  bool TrySubmit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void WaitIdle();

  size_t num_threads() const { return workers_.size(); }
  size_t max_queue_depth() const { return max_queue_depth_; }

  /// Tasks enqueued but not yet picked up by a worker.
  size_t queue_depth() const;

  /// Runs `fn(i)` exactly once for every i in [0, n) across the pool and
  /// waits for those calls only (other callers' tasks on the same pool do
  /// not delay the return). Indices are handed out dynamically from a
  /// shared cursor, so uneven per-index cost balances across workers.
  /// Must not be called from one of this pool's own workers.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  size_t max_queue_depth_ = 0;  // 0 = unbounded (TrySubmit only)
  mutable std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace flock

#endif  // FLOCK_COMMON_THREAD_POOL_H_
