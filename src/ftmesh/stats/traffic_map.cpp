#include "ftmesh/stats/traffic_map.hpp"

#include <algorithm>

namespace ftmesh::stats {

std::vector<double> normalized_traffic_grid(const router::Network& net) {
  const auto raw = net.node_traffic();
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
  TrafficSplit split;
  const auto grid = normalized_traffic_grid(net);
  const auto& mesh = net.mesh();
  const auto& faults = net.faults();
  double fring_sum = 0.0, other_sum = 0.0;
  for (int y = 0; y < mesh.height(); ++y) {
    for (int x = 0; x < mesh.width(); ++x) {
      const topology::Coord c{x, y};
      if (faults.blocked(c)) continue;
      const double load = grid[static_cast<std::size_t>(mesh.id_of(c))];
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
