#pragma once
// Selection policy: choosing among the candidate output channels that are
// free this cycle.
//
// The paper resolves conflicts randomly; we additionally provide a
// least-congested policy (pick the free VC with the most downstream
// credits) for the ablation study A2 in DESIGN.md.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>

#include "ftmesh/routing/routing_algorithm.hpp"
#include "ftmesh/sim/rng.hpp"

namespace ftmesh::routing {

enum class SelectionPolicy : std::uint8_t {
  Random = 0,
  LeastCongested = 1,
};

std::string_view to_string(SelectionPolicy p) noexcept;
SelectionPolicy selection_from_string(std::string_view s);

/// Picks one index into `candidates`.  `credits(i)` reports the downstream
/// credit count of candidate i (higher = emptier downstream buffer); only
/// LeastCongested calls it.  Templated over the credit reader, so the
/// router's per-allocation lambda is called directly rather than through a
/// type-erased wrapper, and over the generator, so the sequential sim::Rng
/// and the counter-based sim::CounterRng (used by the sharded kernel, where
/// every node draws from its own per-cycle stream) share one
/// implementation.
template <typename Credits, typename Rng>
std::size_t select_candidate(SelectionPolicy policy,
                             std::span<const CandidateVc> candidates,
                             const Credits& credits, Rng& rng) {
  if (candidates.empty()) {
    throw std::logic_error("select_candidate: empty set");
  }
  if (candidates.size() == 1) return 0;
  switch (policy) {
    case SelectionPolicy::Random:
      return static_cast<std::size_t>(rng.next_below(candidates.size()));
    case SelectionPolicy::LeastCongested: {
      // Highest downstream credit wins; random tie-break keeps the sim
      // unbiased when several channels are equally empty.
      int best = -1;
      std::size_t best_idx = 0;
      std::size_t ties = 0;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const int c = credits(i);
        if (c > best) {
          best = c;
          best_idx = i;
          ties = 1;
        } else if (c == best) {
          ++ties;
          if (rng.next_below(ties) == 0) best_idx = i;
        }
      }
      return best_idx;
    }
  }
  return 0;
}

}  // namespace ftmesh::routing
