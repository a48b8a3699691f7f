#include "ftmesh/core/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ftmesh::core {

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
    for (std::size_t i = 0; i < count; ++i) fn(i);  // no threads, no locks
    return;
  }
  // The caller is worker 0 and starts the other workers-1; all of them
  // claim indices from one counter.  An exception from fn is caught on the
  // worker that threw it (escaping a thread would terminate), kept if it is
  // the first, and rethrown here once every helper has been joined.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;  // guarded by error_mutex
  const auto run = [&] {
    try {
      while (!failed.load()) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        fn(i);
      }
    } catch (...) {
      std::lock_guard lock(error_mutex);
      if (error == nullptr) error = std::current_exception();
      failed.store(true);
    }
  };
  std::vector<std::jthread> helpers;
  helpers.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(run);
  run();
  helpers.clear();  // joins
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace ftmesh::core
