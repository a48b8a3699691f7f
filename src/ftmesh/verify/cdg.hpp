#pragma once
// Channel-dependency-graph construction over the reachable-state walk
// (state_space.hpp).
//
// The CDG has an edge c1 -> c2 whenever some reachable state can hold
// channel c1 while requesting channel c2 — the Dally-Seitz dependency
// relation.  Only direct dependencies are modelled; docs/verification.md
// discusses why that suffices for the orderings used here.

#include <cstdint>
#include <vector>

#include "ftmesh/verify/state_space.hpp"

namespace ftmesh::verify {

/// A reachable state whose candidate set fails the progress requirement or
/// holds a candidate the walker cannot follow.
struct DeadEnd {
  topology::Coord at;
  topology::Coord dst;
  std::uint64_t key = 0;
  StateFault fault = StateFault::NoCandidate;
};

struct Cdg {
  std::vector<std::vector<std::int32_t>> out;  ///< adjacency by channel id
  std::vector<char> used;  ///< requested by some reachable state
  std::vector<DeadEnd> dead_ends;
  std::uint64_t states_explored = 0;
};

/// Options of build_cdg and verify_algorithm (verifier.hpp).
struct VerifyOptions {
  int threads = 0;  ///< <= 0: one per hardware thread
  std::size_t max_dead_ends = 8;
};

/// Builds the channel-dependency graph of `algo` over `mesh` + `faults`.
/// Destinations are processed in parallel; the result is deterministic.
[[nodiscard]] Cdg build_cdg(const routing::RoutingAlgorithm& algo,
                            const topology::Mesh& mesh,
                            const fault::FaultMap& faults,
                            const VerifyOptions& opts = {});

}  // namespace ftmesh::verify
