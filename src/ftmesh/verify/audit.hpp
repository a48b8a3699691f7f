#pragma once
// Static routing-function audit by exhaustive reachable-state enumeration.
//
// Where the verifier (verifier.hpp) proves the channel-dependency graph
// acyclic, the audit checks the routing *function itself* against the
// contract each algorithm publishes (routing/audit_profile.hpp).  For every
// destination it reads all reachable (node, route-state-key) states — the
// walk the CDG builder reads too (state_space.hpp) — and checks each state
// and each emitted candidate:
//
//   coverage          every reachable state of a connected fault pattern
//                     offers >= 1 candidate (and, when the algorithm's
//                     deadlock argument is EscapeCdg, >= 1 escape-capable
//                     candidate);
//   vc-discipline     candidates stay on the mesh, avoid blocked nodes, and
//                     claim only VC roles the profile permits; EscapeII
//                     candidates stay inside the algorithm's declared class
//                     window;
//   ring-conformance  BcRing candidates ride the channel dedicated to their
//                     message type and step to the f-ring successor under
//                     that type's fixed orientation; in ring mode the
//                     Boppana-Chalasani exit discipline holds;
//   progress          non-minimal non-ring candidates appear only within
//                     the declared misroute budget, and no reachable ring
//                     orbit is exit-free (a state-space cycle of ring hops
//                     none of whose states offers a non-ring candidate is a
//                     guaranteed livelock);
//   route-class       at every node where the algorithm claims uniform_at,
//                     each non-ring state's full candidate list (directions,
//                     VCs and tier boundaries) equals that of every other
//                     such state, in any destination's space, with the
//                     same route site and key — the contract the kernel's
//                     site-keyed route cache relies on.
//
// Findings are exact over the key abstraction: a clean audit proves the
// property for every reachable state, not just the ones one simulation
// happens to visit.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ftmesh/fault/fault_model.hpp"
#include "ftmesh/fault/fring.hpp"
#include "ftmesh/routing/routing_algorithm.hpp"
#include "ftmesh/topology/mesh.hpp"

namespace ftmesh::verify {

enum class AuditCheck : std::uint8_t {
  Coverage = 0,
  VcDiscipline = 1,
  RingConformance = 2,
  Progress = 3,
  RouteClass = 4,
};

/// Stable lower-case identifier ("coverage", "vc-discipline", ...), used in
/// both the human table and the JSON report.
[[nodiscard]] const char* audit_check_name(AuditCheck check) noexcept;

struct AuditViolation {
  AuditCheck check = AuditCheck::Coverage;
  topology::Coord at;
  topology::Coord dst;
  std::uint64_t key = 0;
  std::string detail;
};

struct AuditReport {
  std::string algorithm;
  int width = 0;
  int height = 0;
  int total_vcs = 0;
  int faulty = 0;
  int deactivated = 0;

  std::uint64_t states_explored = 0;
  std::uint64_t candidates_checked = 0;
  /// Non-ring states at uniform nodes, each compared by route-class.
  std::uint64_t site_states = 0;

  /// Total violations found; `violations` keeps only the first
  /// AuditOptions::max_violations of them as witnesses.
  std::uint64_t violation_count = 0;
  std::vector<AuditViolation> violations;

  [[nodiscard]] bool ok() const noexcept { return violation_count == 0; }
};

struct AuditOptions {
  int threads = 0;  ///< <= 0: one per hardware thread
  std::size_t max_violations = 16;
};

/// Audits `algo` over `mesh` + `faults`; `rings` must be the f-ring set of
/// `faults`.  Deterministic for fixed inputs.
[[nodiscard]] AuditReport audit_algorithm(const routing::RoutingAlgorithm& algo,
                                          const topology::Mesh& mesh,
                                          const fault::FaultMap& faults,
                                          const fault::FRingSet& rings,
                                          const AuditOptions& opts = {});

/// Human-readable report: one summary line, then one line per witness
/// violation when the audit failed.
void print_audit_report(std::ostream& os, const AuditReport& report);

}  // namespace ftmesh::verify
