#pragma once
// The cycle kernel's event counts.  Network keeps one whole-run set,
// accumulated from cycle 0; every window over it — the measurement window
// that follows the warm-up, one metrics interval — is the difference of
// two snapshots.

#include <cstdint>
#include <iterator>

namespace ftmesh::router {

struct Counters {
  std::uint64_t flits_generated = 0;
  std::uint64_t flits_delivered = 0;
  std::uint64_t messages_delivered = 0;
  /// Sum over delivered messages of (delivery cycle - creation cycle).
  std::uint64_t latency_sum = 0;
  // Adaptivity: one decision per header per cycle it attempts allocation,
  // with how many (dir, vc) candidates the algorithm offered and how many of
  // those were unallocated.
  std::uint64_t route_decisions = 0;
  std::uint64_t candidates_offered = 0;
  std::uint64_t candidates_free = 0;
  // Route-candidate cache (one lookup per decision while the cache is on).
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  // Per-cycle samples: VC usage (collect_vc_usage) and the active-set sizes
  // summed over the sampled cycles (collect_kernel_stats).
  std::uint64_t vc_usage_samples = 0;
  std::uint64_t kernel_samples = 0;
  std::uint64_t kernel_route_nodes_sum = 0;
  std::uint64_t kernel_switch_nodes_sum = 0;
  std::uint64_t kernel_inject_nodes_sum = 0;
  std::uint64_t kernel_link_regs_sum = 0;

  /// The growth from snapshot `b` to snapshot `a`.
  friend Counters operator-(Counters a, const Counters& b) noexcept;
};

/// Every field of Counters, for the element-wise difference.
inline constexpr std::uint64_t Counters::* kCounterFields[] = {
    &Counters::flits_generated,         &Counters::flits_delivered,
    &Counters::messages_delivered,      &Counters::latency_sum,
    &Counters::route_decisions,         &Counters::candidates_offered,
    &Counters::candidates_free,         &Counters::cache_lookups,
    &Counters::cache_hits,              &Counters::vc_usage_samples,
    &Counters::kernel_samples,          &Counters::kernel_route_nodes_sum,
    &Counters::kernel_switch_nodes_sum, &Counters::kernel_inject_nodes_sum,
    &Counters::kernel_link_regs_sum,
};
static_assert(sizeof(Counters) ==
                  std::size(kCounterFields) * sizeof(std::uint64_t),
              "kCounterFields must list every Counters field");

inline Counters operator-(Counters a, const Counters& b) noexcept {
  for (const auto f : kCounterFields) a.*f -= b.*f;
  return a;
}

}  // namespace ftmesh::router
