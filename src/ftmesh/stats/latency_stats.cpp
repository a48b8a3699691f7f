#include "ftmesh/stats/latency_stats.hpp"

#include <algorithm>
#include <cmath>

namespace ftmesh::stats {

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (std::isnan(p)) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double idx = p * static_cast<double>(sorted.size() - 1);
  // Guard the floor-cast: with large n, idx can round up to n-1 exactly.
  const std::size_t lo =
      std::min(static_cast<std::size_t>(idx), sorted.size() - 1);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

LatencySummary summarize_latency(const router::Network& net,
                                 std::uint64_t warmup) {
  LatencySummary s;
  std::vector<double> lat;
  double net_sum = 0.0;
  double hop_sum = 0.0;
  double misroute_sum = 0.0;
  std::uint64_t ring_users = 0;
  // Finished messages live in the retirement log.  Accumulate in stable-id order — the order the legacy full-table scan
  // used — so the floating-point sums, and therefore the report, are
  // byte-identical regardless of retirement (i.e. delivery) order.
  const auto& retired = net.retired();
  std::vector<std::uint32_t> order(retired.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return retired[a].id < retired[b].id;
  });
  for (const std::uint32_t idx : order) {
    const auto& r = retired[idx];
    if (r.created >= warmup) {
      ++s.generated;
      if (r.aborted) ++s.undelivered;
    }
    if (r.aborted || r.delivered < warmup) continue;
    ++s.delivered;
    lat.push_back(static_cast<double>(r.delivered - r.created));
    net_sum += static_cast<double>(r.delivered - r.injected);
    hop_sum += static_cast<double>(r.hops);
    misroute_sum += static_cast<double>(r.misroutes);
    if (r.ring_user) ++ring_users;
  }
  // Messages still in flight at the end of the run: integer counters only.
  // Free slots carry id == kInvalidMessage; an occupied slot is live.
  for (const auto& m : net.messages()) {
    if (m.id == router::kInvalidMessage) continue;
    if (m.created >= warmup) {
      ++s.generated;
      ++s.undelivered;
    }
  }
  if (lat.empty()) return s;
  const double n = static_cast<double>(lat.size());
  double sum = 0.0;
  for (const double v : lat) sum += v;
  s.mean = sum / n;
  s.mean_network = net_sum / n;
  s.mean_hops = hop_sum / n;
  s.mean_misroutes = misroute_sum / n;
  s.ring_message_fraction = static_cast<double>(ring_users) / n;
  std::sort(lat.begin(), lat.end());
  s.p50 = percentile_sorted(lat, 0.50);
  s.p95 = percentile_sorted(lat, 0.95);
  s.p99 = percentile_sorted(lat, 0.99);
  s.max = lat.back();
  return s;
}

ThroughputSummary summarize_throughput(const router::Network& net) {
  ThroughputSummary t;
  const double cycles = static_cast<double>(net.measured_cycles());
  const double nodes = static_cast<double>(net.faults().active_count());
  if (cycles <= 0.0 || nodes <= 0.0) return t;
  t.offered_flits_per_node_cycle =
      static_cast<double>(net.measured_flits_generated()) / (cycles * nodes);
  t.accepted_flits_per_node_cycle =
      static_cast<double>(net.measured_flits_delivered()) / (cycles * nodes);
  if (t.offered_flits_per_node_cycle > 0.0) {
    t.accepted_fraction = std::min(
        1.0, t.accepted_flits_per_node_cycle / t.offered_flits_per_node_cycle);
  }
  return t;
}

}  // namespace ftmesh::stats
