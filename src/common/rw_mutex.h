#ifndef FLOCK_COMMON_RW_MUTEX_H_
#define FLOCK_COMMON_RW_MUTEX_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace flock {

/// A reader/writer lock (usable with std::unique_lock / std::shared_lock)
/// that admits no new reader while a writer waits. glibc's
/// std::shared_mutex prefers readers, so a stream of overlapping readers
/// — concurrent queries that never all pause at once — can starve a
/// writer indefinitely; here a waiting writer gets in as soon as the
/// readers already inside leave. Not recursive: a thread holding the lock
/// shared must not take it shared again (a writer queued in between
/// would deadlock it).
class RwMutex {
 public:
  void lock() {
    std::unique_lock<std::mutex> guard(mu_);
    ++writers_waiting_;
    cv_.wait(guard, [this] { return !writer_ && readers_ == 0; });
    --writers_waiting_;
    writer_ = true;
  }

  bool try_lock() {
    std::lock_guard<std::mutex> guard(mu_);
    if (writer_ || readers_ > 0) return false;
    writer_ = true;
    return true;
  }

  void unlock() {
    {
      std::lock_guard<std::mutex> guard(mu_);
      writer_ = false;
    }
    cv_.notify_all();
  }

  void lock_shared() {
    std::unique_lock<std::mutex> guard(mu_);
    cv_.wait(guard, [this] { return !writer_ && writers_waiting_ == 0; });
    ++readers_;
  }

  bool try_lock_shared() {
    std::lock_guard<std::mutex> guard(mu_);
    if (writer_ || writers_waiting_ > 0) return false;
    ++readers_;
    return true;
  }

  void unlock_shared() {
    bool wake_writer;
    {
      std::lock_guard<std::mutex> guard(mu_);
      wake_writer = --readers_ == 0 && writers_waiting_ > 0;
    }
    if (wake_writer) cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t readers_ = 0;
  size_t writers_waiting_ = 0;
  bool writer_ = false;
};

}  // namespace flock

#endif  // FLOCK_COMMON_RW_MUTEX_H_
