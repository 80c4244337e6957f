#include "common/thread_pool.h"

namespace smoqe::common {

namespace {

// Which pool (if any) the current thread belongs to, and its worker index.
// Lets Submit route nested submissions to the submitting worker's own deque
// and lets OnPoolThread warn against blocking waits inside tasks.
struct PoolAffinity {
  const ThreadPool* pool = nullptr;
  int index = -1;
};
thread_local PoolAffinity tls_affinity;

}  // namespace

int ThreadPool::HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int num_threads) {
  int n = num_threads > 0 ? num_threads : HardwareThreads();
  queues_.reserve(n);
  for (int i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::OnPoolThread() const { return tls_affinity.pool == this; }

void ThreadPool::Submit(std::function<void()> task) {
  int target;
  if (tls_affinity.pool == this) {
    target = tls_affinity.index;  // nested work stays with its spawner
  } else {
    target = static_cast<int>(next_queue_.fetch_add(
                 1, std::memory_order_relaxed) %
             queues_.size());
  }
  {
    // Claim the slot BEFORE publishing the task: workers cannot observe the
    // drained exit condition (stop_ && pending_ == 0) between the push and
    // the count, so a task accepted here always runs. A task submitting
    // during the destructor's drain is rejected instead (dropped; a
    // SubmitWithResult future then reports broken_promise).
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (stop_) return;
    ++pending_;
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

bool ThreadPool::TryDequeue(int self, std::function<void()>* task) {
  {
    // Own deque: pop the back (most recently pushed -- cache-hot subtasks).
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  // Steal: scan the ring from the next worker, taking the FRONT (oldest)
  // task, which in divide-and-conquer workloads is the biggest chunk.
  const int n = static_cast<int>(queues_.size());
  for (int d = 1; d < n; ++d) {
    WorkerQueue& victim = *queues_[(self + d) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      *task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(int self) {
  tls_affinity = {this, self};
  std::function<void()> task;
  for (;;) {
    if (TryDequeue(self, &task)) {
      {
        std::lock_guard<std::mutex> lock(wake_mu_);
        --pending_;
      }
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    // pending_ > 0 with an empty scan can only happen in the short window
    // between another worker's dequeue and its decrement; waking and
    // re-scanning is harmless.
    wake_cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
    if (stop_ && pending_ == 0) return;
  }
}

}  // namespace smoqe::common
