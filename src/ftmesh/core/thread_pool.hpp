#pragma once
// parallel_for: the one way ftmesh runs work in parallel — batches of
// independent simulations (one per fault pattern / sweep point) and
// campaign workers; a single simulation steps on one thread.  Results stay
// deterministic because every simulation derives its randomness from its
// own (seed, index) pair, never from scheduling.
//
// Each call starts its own helper threads and joins them before it
// returns; the calling thread always participates as one of the workers,
// so `threads == 1` starts no thread (and takes no lock) at all.  The
// callers issue few, long calls (one per campaign, sweep, planning round
// of the figure driver, or static check), so starting threads per call
// costs nothing measurable.

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
/// calling parallel_for — are safe: each call joins only the threads it
/// started.
void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace ftmesh::core
