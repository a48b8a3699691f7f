// Tests for parallel_for, the one parallel loop (its pool is private).

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ftmesh/core/thread_pool.hpp"

namespace {

using ftmesh::core::parallel_for;

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 257;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, 4, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroCountIsNoop) {
  parallel_for(0, 4, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, SingleThreadRunsInline) {
  const auto caller = std::this_thread::get_id();
  parallel_for(16, 1, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelFor, ResolvesThreadCount) {
  EXPECT_EQ(ftmesh::core::resolve_threads(3), 3);
  EXPECT_GE(ftmesh::core::resolve_threads(0), 1);  // every core
  EXPECT_GE(ftmesh::core::resolve_threads(-2), 1);
}

// An exception from fn on any worker reaches the caller after every helper
// returned; it once escaped a pool task and terminated the process.  The
// throwing index stops further claims, so far fewer than all 10000 run.
TEST(ParallelFor, RethrowsTheFirstExceptionOnTheCaller) {
  for (const int threads : {1, 4}) {
    std::atomic<int> ran{0};
    try {
      parallel_for(10000, threads, [&](std::size_t i) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i == 3) throw std::invalid_argument("index 3");
      });
      FAIL() << "no exception at threads " << threads;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "index 3");
    }
    EXPECT_LT(ran.load(), 10000) << threads;
  }
  // The pool is still usable afterwards.
  std::atomic<int> total{0};
  parallel_for(64, 4, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 64);
}

// Regression: nested parallel_for from threads that are themselves pool
// workers (a threaded campaign where each cell steps a sharded network)
// used to deadlock when the pool was small — every worker blocked in its
// inner wait, while the inner helper tasks (which must run to decrement
// the completion count, even with the work counter already exhausted)
// sat unrunnable in the queue.  The helping wait drains the queue from
// the waiters, so this must always complete.  The repro is only
// deterministic while the shared pool is still small, but the fix makes
// the shape safe at any pool size.
TEST(ParallelFor, NestedParallelForFromPoolWorkersCompletes) {
  std::atomic<int> total{0};
  parallel_for(2, 2, [&](std::size_t) {
    parallel_for(4, 2, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8);
}

// A nested call that throws unwinds through the outer call to the caller.
TEST(ParallelFor, NestedExceptionReachesTheOuterCaller) {
  EXPECT_THROW(parallel_for(4, 2,
                            [&](std::size_t) {
                              parallel_for(4, 2, [&](std::size_t j) {
                                if (j == 2) throw std::runtime_error("inner");
                              });
                            }),
               std::runtime_error);
}

}  // namespace
