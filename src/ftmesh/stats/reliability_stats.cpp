#include "ftmesh/stats/reliability_stats.hpp"

#include <algorithm>
#include <vector>

#include "ftmesh/stats/latency_stats.hpp"

namespace ftmesh::stats {

ReliabilitySummary summarize_reliability(const router::Network& net,
                                         const inject::InjectLog& log) {
  ReliabilitySummary out;
  out.enabled = true;
  out.retransmissions = log.retransmissions;
  out.messages_flushed = log.messages_flushed;
  out.fault_events_applied = log.events_applied;
  out.fault_events_rejected = log.events_rejected;
  out.node_failures = log.node_failures;
  out.node_repairs = log.node_repairs;
  out.link_failures = log.link_failures;
  out.link_repairs = log.link_repairs;
  out.rings_reused = log.rings_reused;
  out.rings_rebuilt = log.rings_rebuilt;

  std::vector<double> recovery;
  std::uint64_t post_fault_flits = 0;
  // Finished messages come from the retirement log; collection order is
  // irrelevant here — every float reduction below happens after a sort.
  for (const auto& r : net.retired()) {
    ++out.generated;
    if (!r.aborted) {
      ++out.delivered;
      if (r.retries > 0) {
        ++out.recovered_messages;
        recovery.push_back(static_cast<double>(r.delivered - r.created));
      }
      if (log.events_applied > 0 && r.delivered >= log.last_event_cycle) {
        post_fault_flits += r.length;
      }
    } else {
      ++out.aborted;
    }
  }
  // Live slots: anything not yet retired was still in flight at the end.
  for (const auto& m : net.messages()) {
    if (m.id == router::kInvalidMessage) continue;
    ++out.generated;
    ++out.in_flight_end;
  }

  if (!recovery.empty()) {
    std::sort(recovery.begin(), recovery.end());
    double sum = 0.0;
    for (const double v : recovery) sum += v;
    out.recovery_latency_mean = sum / static_cast<double>(recovery.size());
    // Interpolated percentile, matching the latency summary.  The old
    // floor-index form truncated toward the minimum on small samples
    // (2 recovered messages -> "p95" was the smaller of the two).
    out.recovery_latency_p95 = percentile_sorted(recovery, 0.95);
    out.recovery_latency_max = recovery.back();
  }

  if (log.events_applied > 0 && net.cycle() > log.last_event_cycle) {
    const auto window =
        static_cast<double>(net.cycle() - log.last_event_cycle);
    const int active = net.faults().active_count();
    if (active > 0) {
      out.post_fault_throughput = static_cast<double>(post_fault_flits) /
                                  (window * static_cast<double>(active));
    }
  }
  return out;
}

}  // namespace ftmesh::stats
