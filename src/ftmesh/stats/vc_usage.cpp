#include "ftmesh/stats/vc_usage.hpp"

namespace ftmesh::stats {

double VcUsage::total() const {
  double sum = 0.0;
  for (const double p : percent) sum += p;
  return sum;
}

VcUsage summarize_vc_usage(const router::Network& net) {
  VcUsage usage;
  const auto counts = net.vc_busy_counts();
  usage.percent.assign(counts.size(), 0.0);
  const double samples = static_cast<double>(net.vc_usage_samples());
  if (samples <= 0.0) return usage;
  // Each sample visits every router x 4 link ports.
  const double ports =
      static_cast<double>(net.mesh().node_count()) * topology::kMeshDirections;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    usage.percent[v] = 100.0 * static_cast<double>(counts[v]) / (samples * ports);
  }
  return usage;
}

}  // namespace ftmesh::stats
