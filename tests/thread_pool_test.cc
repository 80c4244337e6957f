// common::ThreadPool: future plumbing, concurrent submission, nested
// (worker-side) submission, work stealing, and drain-on-destruction. Runs
// under the `concurrency` CTest label, so the TSan CI job exercises every
// queue/wake path.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

namespace smoqe::common {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  std::vector<std::future<int>> results;
  for (int i = 0; i < 100; ++i) {
    results.push_back(pool.SubmitWithResult([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(results[i].get(), i * i);
  }
  // The futures above were submitted after the plain tasks onto the same
  // deques, but ordering across deques is not guaranteed -- wait explicitly.
  while (count.load() < 100) std::this_thread::yield();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DefaultWidthIsHardware) {
  ThreadPool pool;
  EXPECT_EQ(pool.num_threads(), ThreadPool::HardwareThreads());
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, TasksRunOnPoolThreadsNotTheCaller) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.OnPoolThread());
  auto on_pool = pool.SubmitWithResult([&pool] { return pool.OnPoolThread(); });
  EXPECT_TRUE(on_pool.get());
}

TEST(ThreadPoolTest, ManyConcurrentSubmitters) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  constexpr int kClients = 8;
  constexpr int kTasksPerClient = 500;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&pool, &sum] {
      for (int t = 0; t < kTasksPerClient; ++t) {
        pool.Submit([&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (std::thread& c : clients) c.join();
  while (sum.load() < kClients * kTasksPerClient) std::this_thread::yield();
  EXPECT_EQ(sum.load(), kClients * kTasksPerClient);
}

TEST(ThreadPoolTest, NestedSubmissionFromWorkers) {
  ThreadPool pool(3);
  std::atomic<int> leaves{0};
  // Each root task fans out children from inside the pool; nested Submit
  // must not deadlock and every leaf must run.
  std::vector<std::future<void>> roots;
  for (int r = 0; r < 8; ++r) {
    roots.push_back(pool.SubmitWithResult([&pool, &leaves] {
      for (int k = 0; k < 16; ++k) {
        pool.Submit(
            [&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); });
      }
    }));
  }
  for (auto& r : roots) r.get();
  while (leaves.load() < 8 * 16) std::this_thread::yield();
  EXPECT_EQ(leaves.load(), 8 * 16);
}

TEST(ThreadPoolTest, StealingDrainsAnUnbalancedQueue) {
  ThreadPool pool(4);
  // One long task occupies its worker while the short tasks -- all
  // round-robined across the deques -- must still finish promptly because
  // idle workers steal them.
  std::atomic<bool> release{false};
  std::atomic<int> shorts{0};
  auto long_task = pool.SubmitWithResult([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  std::vector<std::future<void>> short_tasks;
  for (int i = 0; i < 64; ++i) {
    short_tasks.push_back(pool.SubmitWithResult(
        [&shorts] { shorts.fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& t : short_tasks) t.get();  // completes while long_task blocks
  EXPECT_EQ(shorts.load(), 64);
  release.store(true);
  long_task.get();
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto failing = pool.SubmitWithResult(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(failing.get(), std::runtime_error);
  // The worker survives the packaged_task exception.
  EXPECT_EQ(pool.SubmitWithResult([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // ~ThreadPool: every already-submitted task must have run
  EXPECT_EQ(ran.load(), 200);
}

// ------------------------------------------- shutdown under load --
// The destructor's contract while work is still queued: every external
// Submit must happen-before ~ThreadPool begins (a pool reference outliving
// the pool is the caller's bug), and every task accepted before teardown
// runs. Only a pool task submitting DURING the drain is rejected -- its
// SubmitWithResult future reports broken_promise -- and nothing crashes or
// deadlocks (DestructionRacingNestedWorkerSubmits). These run under the
// `concurrency` label, so the TSan CI job checks the teardown paths.

TEST(ThreadPoolTest, DestructionRacingExternalSubmitters) {
  for (int round = 0; round < 10; ++round) {
    std::atomic<int64_t> ran{0};
    // Declared before the pool: the submitters spin on `go` and the
    // futures outlive the destructor's drain.
    std::atomic<bool> go{false};
    std::vector<std::vector<std::future<void>>> futures(4);
    {
      ThreadPool pool(3);
      std::vector<std::thread> submitters;
      for (int t = 0; t < 4; ++t) {
        submitters.emplace_back([&pool, &go, &ran, &mine = futures[t]] {
          while (!go.load(std::memory_order_acquire)) {
          }
          for (int i = 0; i < 64; ++i) {
            mine.push_back(pool.SubmitWithResult(
                [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
          }
        });
      }
      go.store(true, std::memory_order_release);
      // Every external Submit completes before teardown starts; the
      // destructor then races the workers still draining the queues.
      for (std::thread& t : submitters) t.join();
    }
    // Accepted before teardown, so every task ran: no broken_promise, no
    // loss.
    for (auto& mine : futures) {
      ASSERT_EQ(mine.size(), 64u);
      for (std::future<void>& f : mine) EXPECT_NO_THROW(f.get());
    }
    EXPECT_EQ(ran.load(), 4 * 64);
  }
}

TEST(ThreadPoolTest, DestructionRacingNestedWorkerSubmits) {
  // Workers that keep spawning children while the pool shuts down: each
  // chain stops growing the moment a nested Submit is rejected, the
  // destructor drains whatever was accepted, and the chain depth proves
  // nested work actually ran during the teardown window.
  std::atomic<int64_t> spawned{0};
  {
    // Declared before the pool: tasks drained by ~ThreadPool still invoke
    // `chain`, so it must outlive the destructor.
    std::function<void(int)> chain;
    ThreadPool pool(3);
    chain = [&pool, &spawned, &chain](int depth) {
      spawned.fetch_add(1, std::memory_order_relaxed);
      if (depth < 2000) {
        pool.Submit([&chain, depth] { chain(depth + 1); });
      }
    };
    for (int r = 0; r < 6; ++r) {
      pool.Submit([&chain] { chain(0); });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }  // destructor races the self-perpetuating chains
  EXPECT_GT(spawned.load(), 0);
}

TEST(ThreadPoolTest, SubmitAfterDestructionWindowIsRejectedNotLost) {
  // A future obtained from a Submit that raced teardown must resolve
  // (value or broken_promise), never hang.
  std::future<int> late;
  {
    ThreadPool pool(2);
    late = pool.SubmitWithResult([] { return 11; });
  }
  // Accepted before teardown: the drain ran it.
  EXPECT_EQ(late.get(), 11);
}

}  // namespace
}  // namespace smoqe::common
