#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace flock {

ThreadPool::ThreadPool(size_t num_threads, size_t max_queue_depth)
    : max_queue_depth_(max_queue_depth) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return false;
    if (max_queue_depth_ != 0 && tasks_.size() >= max_queue_depth_) {
      return false;
    }
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
  return true;
}

size_t ThreadPool::queue_depth() const {
  std::unique_lock<std::mutex> lock(mu_);
  return tasks_.size();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // This call's own completion latch: the caller waits for its runners
  // only, never for unrelated tasks sharing the pool. It lives on the
  // caller's stack; each runner touches it last under `mu`, which the
  // caller must take before it can return.
  struct Latch {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t running = 0;
  } latch;
  const size_t runners = std::min(n, workers_.size());
  latch.running = runners;
  for (size_t r = 0; r < runners; ++r) {
    Submit([&latch, n, &fn] {
      // Indices are handed out one at a time, so a runner that draws
      // cheap indices simply takes more of them.
      for (size_t i = latch.next.fetch_add(1, std::memory_order_relaxed);
           i < n; i = latch.next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
      std::lock_guard<std::mutex> lock(latch.mu);
      if (--latch.running == 0) latch.cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(latch.mu);
  latch.cv.wait(lock, [&latch] { return latch.running == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (shutdown_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace flock
