#pragma once
// Cycle-kernel statistics: route-candidate cache effectiveness and the
// sizes of the active sets the occupancy-driven scheduler iterates
// (router/network.hpp).  Collected behind SimConfig::collect_kernel_stats;
// the underlying counters are exact gauges, identical at every thread
// count.

#include <cstdint>

namespace ftmesh::router {
class Network;
}

namespace ftmesh::stats {

struct KernelSummary {
  bool enabled = false;  ///< collect_kernel_stats was on

  // Route-candidate cache, measurement window.  One lookup per routing
  // decision while the cache is enabled, so lookups == adaptivity
  // decisions; lookups == hits + misses by construction.
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_invalidations = 0;  ///< fault-change events, whole run
  double cache_hit_rate = 0.0;            ///< hits / lookups (0 if no lookups)

  // Mean active-set sizes, sampled at the end of every measured cycle:
  // nodes with a routable header, nodes with a sendable flit, nodes with
  // pending injection work, and flits that crossed a link in the cycle.
  std::uint64_t samples = 0;
  double mean_route_nodes = 0.0;
  double mean_switch_nodes = 0.0;
  double mean_inject_nodes = 0.0;
  double mean_link_regs = 0.0;
};

/// Reduces the network's kernel counters; `enabled` mirrors the collect
/// flag so reporters can skip the section when it was off.
KernelSummary summarize_kernel(const router::Network& net);

}  // namespace ftmesh::stats
