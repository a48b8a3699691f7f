#pragma once
// Multi-run experiment harness: runs a batch of independent simulations
// (sweep points x fault patterns) across parallel_for and aggregates the
// per-run results, as the paper does ("the values obtained from 10
// different fault sets are averaged").

#include <functional>
#include <vector>

#include "ftmesh/core/simulator.hpp"

namespace ftmesh::core {

/// One run of a batch: simulates `config` and returns its result.  With
/// `drain` set the run is followed by Simulator::drain() and the result is
/// the snapshot() after the drain: the accounting check of a dynamic-fault
/// run.  A config whose fault pattern cannot be drawn (disconnection after
/// max retries, a std::runtime_error) yields a default-constructed result
/// with cycles_run == 0, which aggregate() skips; any other exception (an
/// invalid config) propagates.
SimResult run_one(const SimConfig& config, bool drain = false);

/// run_one() for every config, in parallel (threads <= 0 = all cores).
/// The i-th result corresponds to the i-th config; `drain`, when given,
/// holds one flag per config.  The first exception a run throws is
/// rethrown here.
std::vector<SimResult> run_batch(const std::vector<SimConfig>& configs,
                                 int threads = 0,
                                 const std::vector<bool>& drain = {});

/// Seed of the i-th fault pattern for a campaign cell: a pure function of
/// (base seed, fault count, pattern index).  Pattern 0 keeps the base seed
/// unchanged (a single-pattern sweep is the base run, byte for byte); later
/// patterns hash the triple, so adjacent-seed cells never alias (the old
/// `seed + i` scheme made cell A's pattern 1 identical to cell B's pattern
/// 0 whenever their base seeds were consecutive).  Because the hash ignores
/// everything but this triple, every (algorithm, rate) cell of a campaign
/// replays the same fault sets — the paper's controlled comparison.
std::uint64_t pattern_seed(std::uint64_t base_seed, int fault_count, int pattern);

/// `count` configs derived from `base` by re-seeding with pattern_seed():
/// the paper's "N random fault sets" protocol.
std::vector<SimConfig> fault_pattern_sweep(const SimConfig& base, int count);

/// Mean of the scalar metrics across runs (VC usage and the traffic split
/// are averaged element-wise when present).  Deadlocked runs are counted
/// in `deadlock` (true when any run tripped) but still averaged.
SimResult aggregate(const std::vector<SimResult>& results);

}  // namespace ftmesh::core
