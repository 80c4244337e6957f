// A work-stealing thread pool: the execution substrate of the parallel
// query service (exec/).
//
// Each worker owns a deque; its owner pushes and pops at the back (LIFO, so
// freshly spawned subtasks run hot in cache), while idle workers steal from
// the front of other workers' deques (FIFO, so thieves take the oldest --
// typically largest -- pending task). External submissions are distributed
// round-robin. The design follows the classic owner-LIFO / thief-FIFO
// discipline; deques are mutex-guarded (per-deque, so contention is between
// one owner and occasional thieves, not across the pool), which keeps the
// pool simple to reason about and clean under ThreadSanitizer.
//
// Shutdown semantics: the destructor stops accepting new work, DRAINS every
// queued task, then joins. External Submit calls must happen-before the
// destructor begins (the caller owns that ordering, as for any object's
// lifetime); every task so accepted runs. Only a pool TASK submitting during
// the drain is rejected -- the task is dropped and a SubmitWithResult future
// reports broken_promise.
//
// Blocking caveat: a task must not block on the completion of other pool
// tasks unless the pool is known to have idle workers (classic pool
// deadlock). The sharded evaluator obeys this by waiting only on the
// SUBMITTING (non-pool) thread.

#ifndef SMOQE_COMMON_THREAD_POOL_H_
#define SMOQE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace smoqe::common {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means the hardware concurrency (at
  /// least 1).
  explicit ThreadPool(int num_threads = 0);

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. From a pool thread, the task lands on that worker's
  /// own deque (depth-first execution of nested work); from outside,
  /// round-robin. The task must not throw.
  void Submit(std::function<void()> task);

  /// Submit returning a future for the callable's result (exceptions
  /// propagate through the future).
  template <typename F>
  auto SubmitWithResult(F f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> result = task->get_future();
    Submit([task] { (*task)(); });
    return result;
  }

  /// True when called from one of this pool's worker threads (the condition
  /// under which waiting on pool futures can deadlock).
  bool OnPoolThread() const;

  /// std::thread::hardware_concurrency clamped to >= 1.
  static int HardwareThreads();

 private:
  // One owner-LIFO / thief-FIFO deque per worker.
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(int self);
  bool TryDequeue(int self, std::function<void()>* task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<uint32_t> next_queue_{0};

  // Sleep/wake state. `pending_` counts tasks sitting in deques (decremented
  // when a worker dequeues, before running), so `stop_ && pending_ == 0` is
  // the drain-complete exit condition.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  int64_t pending_ = 0;
  bool stop_ = false;
};

}  // namespace smoqe::common

#endif  // SMOQE_COMMON_THREAD_POOL_H_
