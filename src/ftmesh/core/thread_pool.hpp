#pragma once
// parallel_for: the one way ftmesh runs work in parallel — batches of
// independent simulations (one per fault pattern / sweep point), campaign
// workers, and the sharded kernel's per-tile phases.  Results stay
// deterministic because every simulation derives its randomness from its
// own (seed, index) pair, never from scheduling.
//
// The helpers come from a process-lifetime pool private to
// thread_pool.cpp: campaign batches are issued back-to-back, and
// spawning/joining a full complement of OS threads per batch was a
// measurable fixed cost.  The pool starts with zero workers and grows on
// demand, never shrinking; the calling thread always participates as one
// of the workers, so `threads == 1` never touches the pool (or any lock)
// at all.

#include <cstddef>
#include <functional>

namespace ftmesh::core {

/// The worker count parallel_for runs with for `threads`: `threads` itself
/// when positive, otherwise every core (at least 1).
[[nodiscard]] int resolve_threads(int threads);

/// Runs fn(i) for i in [0, count) across min(resolve_threads(threads),
/// count) workers and waits.  The caller participates as one of the
/// workers.  Work is claimed through a shared atomic counter
/// (self-scheduling), so uneven task durations balance automatically.
///
/// The first exception fn throws, on any worker, is rethrown on the caller
/// once every helper has returned; after it, workers claim no further
/// indices (calls already running finish).  Nested calls — fn itself
/// calling parallel_for — are safe: a waiting caller runs queued pool
/// tasks instead of sleeping.
void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace ftmesh::core
