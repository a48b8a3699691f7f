#pragma once
// Factory for the paper's eleven algorithm configurations (ten algorithms;
// Boura appears as both its Adaptive and Fault-Tolerant variants).
//
// Every algorithm except Boura-FT is wrapped with the Boppana-Chalasani
// fortification; VC layouts follow DESIGN.md item 2.

#include <memory>
#include <string>
#include <vector>

#include "ftmesh/fault/fring.hpp"
#include "ftmesh/routing/routing_algorithm.hpp"
#include "ftmesh/routing/selection.hpp"

namespace ftmesh::routing {

struct RoutingOptions {
  int total_vcs = 24;        ///< VCs per physical channel (paper: 24)
  int misroute_limit = 10;   ///< Fully-Adaptive misroute cap (paper: 10)
  bool xy_escape = true;     ///< progress channel for the free-choice class
  SelectionPolicy selection = SelectionPolicy::Random;
};

/// The canonical series names, in the paper's plotting order.
const std::vector<std::string>& algorithm_names();

/// True if `name` is one of algorithm_names().
bool is_algorithm_name(std::string_view name);

/// Builds the named algorithm against (mesh, faults, rings).
/// Throws std::invalid_argument for unknown names or infeasible VC budgets
/// (below min_vcs_required, or above kMaxVcs).
std::unique_ptr<RoutingAlgorithm> make_algorithm(
    std::string_view name, const topology::Mesh& mesh,
    const fault::FaultMap& faults, const fault::FRingSet& rings,
    const RoutingOptions& opts = {});

/// Minimum VC budget the named algorithm needs on `mesh` (escape classes +
/// ring channels + at least one adaptive channel where applicable).
int min_vcs_required(std::string_view name, const topology::Mesh& mesh);

}  // namespace ftmesh::routing
