#include "ftmesh/stats/traffic_map.hpp"

#include <algorithm>

namespace ftmesh::stats {

std::vector<double> normalized_traffic_grid(const std::vector<std::uint64_t>& raw) {
  std::vector<double> grid(raw.size(), 0.0);
  std::uint64_t peak = 0;
  for (const auto v : raw) peak = std::max(peak, v);
  if (peak == 0) return grid;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    grid[i] = 100.0 * static_cast<double>(raw[i]) / static_cast<double>(peak);
  }
  return grid;
}

TrafficSplit summarize_traffic_split(const router::Network& net,
                                     const fault::FRingSet& rings) {
  return summarize_traffic_split(net.node_traffic(), net.faults(), rings);
}

TrafficSplit summarize_traffic_split(const std::vector<std::uint64_t>& loads,
                                     const fault::FaultMap& faults,
                                     const fault::FRingSet& rings) {
  TrafficSplit split;
  const auto grid = normalized_traffic_grid(loads);
  double fring_sum = 0.0, other_sum = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto c = faults.mesh().coord_of(static_cast<topology::NodeId>(i));
    if (faults.blocked(c)) continue;
    const double load = grid[i];
    if (rings.on_any_ring(c)) {
      ++split.fring_nodes;
      fring_sum += load;
      split.fring_peak_percent = std::max(split.fring_peak_percent, load);
    } else {
      ++split.other_nodes;
      other_sum += load;
      split.other_peak_percent = std::max(split.other_peak_percent, load);
    }
  }
  if (split.fring_nodes > 0) {
    split.fring_mean_percent = fring_sum / static_cast<double>(split.fring_nodes);
  }
  if (split.other_nodes > 0) {
    split.other_mean_percent = other_sum / static_cast<double>(split.other_nodes);
  }
  return split;
}

}  // namespace ftmesh::stats
