#pragma once
// Offline deadlock-freedom verification of a routing algorithm against a
// mesh + fault map.
//
// Three checks, driven by the algorithm's declared DeadlockArgument:
//   1. Layered CDG acyclicity:
//      a. the base subgraph — every used non-ring channel under FullCdg
//         (the hop schemes, whose class order must hold on every channel)
//         or the non-ring escape subgraph under EscapeCdg (Duato's
//         theorem) — must be acyclic, and
//      b. the Boppana-Chalasani ring subgraph (BcRing channels only) must
//         be acyclic — no message type's arc wraps a fault ring.
//      Dependency cycles that cross between the two layers are exempt:
//      they are covered by the fortification theorem's drain argument
//      (docs/verification.md), which is exactly what these two machine-
//      checked premises feed.
//   2. Progress — every reachable routing state offers at least one
//      candidate (and, under EscapeCdg, at least one *escape* candidate),
//      and none it offers leaves the mesh, names the Local port or a VC
//      outside the layout.
//   3. As a by-product of 1a, a topological rank per checked channel that
//      the router can assert against at runtime in debug builds
//      (Network::set_debug_channel_order).

#include <iosfwd>
#include <string>
#include <vector>

#include "ftmesh/verify/cdg.hpp"

namespace ftmesh::verify {

struct VerifyReport {
  std::string algorithm;
  routing::DeadlockArgument argument = routing::DeadlockArgument::EscapeCdg;
  int width = 0;
  int height = 0;
  int total_vcs = 0;
  int faulty = 0;
  int deactivated = 0;

  std::int32_t channels_total = 0;
  std::int32_t channels_used = 0;
  std::int32_t channels_checked = 0;  ///< vertices of the base subgraph
  std::int32_t ring_channels_checked = 0;  ///< used BcRing channels
  std::uint64_t dependency_edges = 0;  ///< edges of the full CDG
  std::uint64_t states_explored = 0;

  /// Witness dependency cycles (channel ids; empty when acyclic): one over
  /// the base (non-ring) subgraph, one over the ring subgraph.
  std::vector<std::int32_t> cycle;
  std::vector<std::int32_t> ring_cycle;
  std::vector<DeadEnd> dead_ends;

  /// Topological rank per channel over the base subgraph, -1 for unchecked
  /// channels (ring channels included — their order is the per-ring arc
  /// discipline, not a global rank); along every base dependency the rank
  /// strictly increases.  Empty when a cycle was found.
  std::vector<std::int32_t> channel_order;

  [[nodiscard]] bool ok() const noexcept {
    return cycle.empty() && ring_cycle.empty() && dead_ends.empty();
  }
};

/// Runs every check on `algo`.  Deterministic for fixed inputs.
[[nodiscard]] VerifyReport verify_algorithm(
    const routing::RoutingAlgorithm& algo, const topology::Mesh& mesh,
    const fault::FaultMap& faults, const VerifyOptions& opts = {});

/// "(x,y) D vcN" rendering of a channel id.
[[nodiscard]] std::string describe_channel(const topology::Mesh& mesh,
                                           int total_vcs, std::int32_t channel);

/// Human-readable report: one summary line, then cycle / dead-end details
/// when the verification failed.
void print_report(std::ostream& os, const VerifyReport& report,
                  const topology::Mesh& mesh);

}  // namespace ftmesh::verify
