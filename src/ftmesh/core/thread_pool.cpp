#include "ftmesh/core/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ftmesh::core {

namespace {

/// The persistent pool behind parallel_for: a FIFO of tasks served by
/// workers that are spawned on demand and joined at process exit.
class ThreadPool {
 public:
  ThreadPool() = default;
  ~ThreadPool() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_task_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Function-local static: constructed empty on first use, destroyed (and
  /// its workers joined) at process exit after main returns.
  static ThreadPool& shared() {
    static ThreadPool pool;
    return pool;
  }

  /// Grows the pool to at least `threads` workers (never shrinks).
  void ensure_threads(int threads) {
    std::lock_guard lock(mutex_);
    while (static_cast<int>(workers_.size()) < threads) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  /// Enqueues a task on behalf of `owner`.  Tasks must not throw
  /// (parallel_for's catch theirs).
  void submit(const void* owner, std::function<void()> fn) {
    {
      std::lock_guard lock(mutex_);
      tasks_.push_back(Task{owner, std::move(fn)});
    }
    cv_task_.notify_one();
  }

  /// Removes `owner`'s tasks that no worker has started; returns how many.
  int cancel(const void* owner) {
    std::lock_guard lock(mutex_);
    const auto kept = std::remove_if(
        tasks_.begin(), tasks_.end(),
        [owner](const Task& t) { return t.owner == owner; });
    const auto removed = static_cast<int>(tasks_.end() - kept);
    tasks_.erase(kept, tasks_.end());
    return removed;
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mutex_);
        cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
        if (tasks_.empty()) return;  // stop_ with nothing left to run
        task = std::move(tasks_.front().fn);
        tasks_.pop_front();
      }
      task();
    }
  }

  struct Task {
    const void* owner;  ///< the parallel_for call that submitted it
    std::function<void()> fn;
  };

  std::vector<std::thread> workers_;
  std::deque<Task> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  bool stop_ = false;
};

}  // namespace

int resolve_threads(int threads) {
  int n = threads;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, n);
}

void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t)>& fn) {
  const auto workers = std::min(
      static_cast<std::size_t>(resolve_threads(threads)), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);  // no pool, no locks
    return;
  }
  // The caller is worker 0; the shared pool supplies the other workers-1.
  // Completion is tracked locally (not through the pool) so concurrent
  // parallel_for calls from different threads never wait on each other's
  // tasks.  The last decrement notifies while holding the mutex: the
  // waiting caller owns the stack these refer to, and may destroy it the
  // moment the predicate is observed true.  An exception from fn is caught
  // on the worker that threw it (escaping a pool task would terminate),
  // kept if it is the first, and rethrown here once no helper still reads
  // this frame.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  int active = static_cast<int>(workers) - 1;
  std::exception_ptr error;  // guarded by done_mutex
  const auto run = [&] {
    try {
      while (!failed.load()) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        fn(i);
      }
    } catch (...) {
      std::lock_guard lock(done_mutex);
      if (error == nullptr) error = std::current_exception();
      failed.store(true);
    }
  };
  ThreadPool& pool = ThreadPool::shared();
  pool.ensure_threads(static_cast<int>(workers) - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    pool.submit(&next, [&] {
      run();
      std::lock_guard lock(done_mutex);
      if (--active == 0) done_cv.notify_one();
    });
  }
  run();
  // The work counter is exhausted: a helper still queued would only find
  // that out, so take those back and sleep until the ones already running
  // return.  parallel_for nests (campaign workers each stepping a sharded
  // network), and this is what keeps that safe when every pool worker is
  // itself blocked in a nested wait: no caller depends on a queued task.
  // The caller runs no other call's task while it waits either — a
  // campaign worker run inside a suspended step could block on that
  // step's unfinished cell.  Every running helper started after this call
  // began and waits only on calls begun later still, so waits cannot form
  // a cycle.
  const int cancelled = pool.cancel(&next);
  {
    std::unique_lock lock(done_mutex);
    active -= cancelled;
    done_cv.wait(lock, [&] { return active == 0; });
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace ftmesh::core
