#pragma once
// Per-node traffic load and the f-ring vs elsewhere split (Figure 6).
//
// A node's load is the number of flits that crossed its switch during the
// measurement window.  Figure 6 reports loads normalised so the busiest
// node is 100%; we report the mean normalised load of f-ring nodes and of
// all other active nodes, plus the peak.

#include <vector>

#include "ftmesh/fault/fring.hpp"
#include "ftmesh/router/network.hpp"

namespace ftmesh::stats {

struct TrafficSplit {
  double fring_mean_percent = 0.0;  ///< mean normalised load, f-ring nodes
  double other_mean_percent = 0.0;  ///< mean normalised load, other nodes
  double fring_peak_percent = 0.0;  ///< busiest f-ring node
  double other_peak_percent = 0.0;  ///< busiest non-ring node
  std::size_t fring_nodes = 0;
  std::size_t other_nodes = 0;
};

/// Requires collect_traffic_map = true.  `rings` may come from a *reference*
/// fault pattern: the paper's fault-free bars evaluate the same node
/// positions that form rings in the faulty runs.
TrafficSplit summarize_traffic_split(const router::Network& net,
                                     const fault::FRingSet& rings);

/// The same split over the per-node loads of a run (SimResult::
/// node_traffic) whose fault map was `faults`; no loads, an empty split.
TrafficSplit summarize_traffic_split(const std::vector<std::uint64_t>& loads,
                                     const fault::FaultMap& faults,
                                     const fault::FRingSet& rings);

/// Normalised per-node load grid (percent of the peak node), row-major,
/// from per-node loads such as Network::node_traffic().
std::vector<double> normalized_traffic_grid(const std::vector<std::uint64_t>& loads);

}  // namespace ftmesh::stats
