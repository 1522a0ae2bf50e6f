#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include "common/random.h"
#include "common/rw_mutex.h"
#include "common/status.h"
#include "common/status_or.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace flock {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("table t");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: table t");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
  EXPECT_FALSE(Status::Internal("x") == Status::Aborted("x"));
}

TEST(StatusTest, DataLossCarriesCodeAndMessage) {
  Status st = Status::DataLoss("wal record 7: checksum mismatch");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(st.ToString(), "DataLoss: wal record 7: checksum mismatch");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "DataLoss");
}

TEST(StatusTest, DataLossIsDistinctFromInternal) {
  // Durability code must not overload Internal for corruption; the two
  // codes have different retry/alerting semantics.
  EXPECT_FALSE(Status::DataLoss("x") == Status::Internal("x"));
  EXPECT_EQ(Status::DataLoss("x"), Status::DataLoss("x"));
}

StatusOr<int> ReturnsValue() { return 42; }
StatusOr<int> ReturnsError() { return Status::InvalidArgument("bad"); }

TEST(StatusOrTest, HoldsValue) {
  auto v = ReturnsValue();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  auto v = ReturnsError();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(v.value_or(7), 7);
}

StatusOr<int> UsesAssignOrReturn() {
  FLOCK_ASSIGN_OR_RETURN(int x, ReturnsValue());
  return x + 1;
}

StatusOr<int> PropagatesError() {
  FLOCK_ASSIGN_OR_RETURN(int x, ReturnsError());
  return x + 1;
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  EXPECT_EQ(*UsesAssignOrReturn(), 43);
  EXPECT_EQ(PropagatesError().status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StringUtilTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitWhitespace) {
  auto parts = SplitWhitespace("  foo\t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "bar");
}

TEST(StringUtilTest, TrimAndCase) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(ToUpper("SeLeCt"), "SELECT");
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_TRUE(EqualsIgnoreCase("Model", "MODEL"));
  EXPECT_FALSE(EqualsIgnoreCase("Model", "Models"));
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("flock_engine", "flock"));
  EXPECT_FALSE(StartsWith("flock", "flock_engine"));
  EXPECT_TRUE(EndsWith("model.bin", ".bin"));
}

TEST(StringUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(22330), "22,330");
  EXPECT_EQ(FormatWithCommas(-1234567), "-1,234,567");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(0), "0");
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, UniformIntStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(99);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(ZipfTest, HeavyHead) {
  ZipfSampler zipf(1000, 1.2, 42);
  size_t head = 0;
  const size_t kSamples = 20000;
  for (size_t i = 0; i < kSamples; ++i) {
    if (zipf.Next() < 10) ++head;
  }
  // With s=1.2 over 1000 ranks, the top-10 should dominate.
  EXPECT_GT(head, kSamples / 2);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndexes) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForUnevenCostRunsEachIndexOnceAndBalances) {
  // Index 0 is slow: it waits (up to 10 s) until every other index has
  // run. Handed out dynamically, the other indices go to the remaining
  // workers meanwhile; split into fixed per-worker chunks, the indices
  // queued behind index 0 in its chunk could not run until it returned.
  ThreadPool pool(4);
  constexpr size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  std::mutex mu;
  std::condition_variable cv;
  size_t others_done = 0;
  bool saw_all_others = false;
  pool.ParallelFor(kN, [&](size_t i) {
    hits[i]++;
    std::unique_lock<std::mutex> lock(mu);
    if (i == 0) {
      saw_all_others = cv.wait_for(lock, std::chrono::seconds(10),
                                   [&] { return others_done == kN - 1; });
      return;
    }
    // Uneven cost among the rest too.
    lock.unlock();
    volatile size_t sink = 0;
    for (size_t k = 0; k < (i % 7) * 20000; ++k) sink = sink + k;
    lock.lock();
    if (++others_done == kN - 1) cv.notify_all();
  });
  EXPECT_TRUE(saw_all_others);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallersWaitOnlyForTheirOwnWork) {
  // A slow caller holds one worker; a fast caller sharing the pool must
  // return while the slow one is still running, not wait for the whole
  // pool to go idle.
  ThreadPool pool(4);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> slow_started;
  std::atomic<bool> slow_running{false};
  std::thread slow([&] {
    pool.ParallelFor(1, [&](size_t) {
      slow_running = true;
      slow_started.set_value();
      gate.wait_for(std::chrono::seconds(10));
      slow_running = false;
    });
  });
  slow_started.get_future().wait();

  std::atomic<int> fast_hits{0};
  pool.ParallelFor(64, [&](size_t) { fast_hits++; });
  const bool slow_was_running = slow_running.load();
  release.set_value();
  slow.join();

  EXPECT_EQ(fast_hits.load(), 64);
  EXPECT_TRUE(slow_was_running);
}

TEST(RwMutexTest, WaitingWriterBlocksNewReaders) {
  // A reader holds the lock; a writer queues. From then on no new reader
  // gets in (a reader-preferring lock would keep admitting them and could
  // starve the writer), and the writer runs once the first reader leaves.
  RwMutex mu;
  mu.lock_shared();
  std::atomic<bool> wrote{false};
  std::thread writer([&] {
    mu.lock();
    wrote = true;
    mu.unlock();
  });
  bool readers_blocked = false;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < give_up) {
    if (!mu.try_lock_shared()) {
      readers_blocked = true;
      break;
    }
    mu.unlock_shared();
    std::this_thread::yield();
  }
  EXPECT_TRUE(readers_blocked);
  EXPECT_FALSE(wrote.load());
  mu.unlock_shared();
  writer.join();
  EXPECT_TRUE(wrote.load());
  // Free again for both kinds of holders.
  EXPECT_TRUE(mu.try_lock_shared());
  mu.unlock_shared();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&done] { done++; });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPoolTest, TrySubmitShedsWhenQueueFull) {
  ThreadPool pool(1, /*max_queue_depth=*/2);
  // Block the single worker so queued tasks pile up deterministically.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> started;
  pool.Submit([&, gate] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();

  std::atomic<int> ran{0};
  // The worker is busy, so these two fill the bounded queue...
  EXPECT_TRUE(pool.TrySubmit([&ran] { ran++; }));
  EXPECT_TRUE(pool.TrySubmit([&ran] { ran++; }));
  EXPECT_EQ(pool.queue_depth(), 2u);
  // ...and the next ones are shed without blocking.
  EXPECT_FALSE(pool.TrySubmit([&ran] { ran++; }));
  EXPECT_FALSE(pool.TrySubmit([&ran] { ran++; }));

  release.set_value();
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 2);  // shed tasks never ran

  // Once drained, the queue has room again.
  EXPECT_TRUE(pool.TrySubmit([&ran] { ran++; }));
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, UnboundedTrySubmitNeverSheds) {
  ThreadPool pool(2);  // max_queue_depth = 0 -> unbounded
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(pool.TrySubmit([&ran] { ran++; }));
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 64);
}

}  // namespace
}  // namespace flock
