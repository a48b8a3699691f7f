#pragma once
// The reachable-state walk behind both static checkers: the CDG builder
// (cdg.hpp) and the routing audit (audit.hpp) each read the state space it
// returns per destination.
//
// For each destination, a breadth-first search over routing states (header
// node, RoutingAlgorithm::route_state_key), seeded at every healthy source
// via on_inject and advanced by applying on_hop to a scratch message.  The
// algorithm's key contract (equal keys at equal positions see equal
// candidate sets, and keys are congruent under on_hop) makes the search
// finite and exact over the key abstraction.  Each state's candidates are
// enumerated and checked once; only valid ones (VC inside the layout, not
// the Local port, on the mesh) are walked.

#include <cstdint>
#include <utility>
#include <vector>

#include "ftmesh/core/thread_pool.hpp"
#include "ftmesh/fault/fault_model.hpp"
#include "ftmesh/routing/routing_algorithm.hpp"
#include "ftmesh/topology/mesh.hpp"

namespace ftmesh::verify {

enum class CandidateFault : std::uint8_t { None, VcOutsideLayout, LocalPort, OffMesh };

/// One emitted candidate, packed into 8 bytes: the walk keeps every
/// state's candidates, and their footprint sets its speed.
struct WalkCandidate {
  topology::Direction dir = topology::Direction::Local;
  CandidateFault fault = CandidateFault::None;
  std::int16_t vc = 0;     ///< CandidateList holds VCs as bytes
  std::int32_t next = -1;  ///< the state it enters; -1 when invalid or it
                           ///< delivers (ejection is always a sink)
};

/// The per-state verdict both checkers read: the progress requirement (some
/// candidate; under an EscapeCdg argument, some valid escape-VC one) and
/// candidate validity, first failure first.
enum class StateFault : std::uint8_t { None, NoCandidate, InvalidCandidate, NoEscape };

/// One destination's reachable states, numbered in discovery (BFS) order.
struct StateSpace {
  topology::Coord dst;
  std::vector<topology::Coord> at;
  std::vector<router::HeaderState> msg;  ///< the header enumerated there
  std::vector<std::uint64_t> key;        ///< route_state_key(msg)
  std::vector<StateFault> fault;
  std::vector<std::vector<WalkCandidate>> cands;  ///< in enumeration order

  [[nodiscard]] std::size_t size() const noexcept { return at.size(); }
};

/// The states reachable towards `dst` from every healthy source.
[[nodiscard]] StateSpace walk_destination(const routing::RoutingAlgorithm& algo,
                                          const topology::Mesh& mesh,
                                          const fault::FaultMap& faults,
                                          topology::Coord dst);

/// Walks every active destination on `threads` workers (<= 0: one per
/// hardware thread) and returns read(space) for each, in destination order,
/// so callers merge deterministically.
template <typename Read>
auto walk_state_space(const routing::RoutingAlgorithm& algo,
                      const topology::Mesh& mesh, const fault::FaultMap& faults,
                      int threads, const Read& read) {
  const auto dsts = faults.active_nodes();
  std::vector<decltype(read(std::declval<const StateSpace&>()))> out(dsts.size());
  core::parallel_for(dsts.size(), threads, [&](std::size_t i) {
    out[i] = read(walk_destination(algo, mesh, faults, dsts[i]));
  });
  return out;
}

}  // namespace ftmesh::verify
