#include "ftmesh/routing/registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "ftmesh/routing/boppana_chalasani.hpp"
#include "ftmesh/routing/boura.hpp"
#include "ftmesh/routing/duato.hpp"
#include "ftmesh/routing/fully_adaptive.hpp"
#include "ftmesh/routing/hop_scheme.hpp"
#include "ftmesh/routing/minimal_adaptive.hpp"
#include "ftmesh/routing/xy.hpp"

namespace ftmesh::routing {

using topology::Mesh;

const std::vector<std::string>& algorithm_names() {
  static const std::vector<std::string> names = {
      "PHop",           "NHop",           "Pbc",
      "Nbc",            "Duato",          "Duato-Pbc",
      "Duato-Nbc",      "Minimal-Adaptive", "Fully-Adaptive",
      "Boura-Adaptive", "Boura-FT",
  };
  return names;
}

bool is_algorithm_name(std::string_view name) {
  for (const auto& n : algorithm_names()) {
    if (n == name) return true;
  }
  return false;
}

namespace {

/// VCs per hop class so the budget is filled: e.g. 24 VCs, 10 NHop classes
/// -> 2 per class (paper's NHop configuration); 24 VCs, 19 PHop classes
/// -> 1 per class with the spare strengthening class 0.
int per_class_for(int total, int classes, bool ring) {
  const int avail = total - (ring ? router::kMsgTypeCount : 0);
  return std::max(1, avail / classes);
}

std::unique_ptr<RoutingAlgorithm> wrap_bc(
    const Mesh& mesh, const fault::FaultMap& faults,
    const fault::FRingSet& rings, std::unique_ptr<RoutingAlgorithm> base,
    std::string name) {
  return std::make_unique<BoppanaChalasani>(mesh, faults, rings,
                                            std::move(base), std::move(name));
}

}  // namespace

int min_vcs_required(std::string_view name, const Mesh& mesh) {
  const int ring = router::kMsgTypeCount;
  if (name == "PHop" || name == "Pbc") return mesh.phop_classes() + ring;
  if (name == "NHop" || name == "Nbc") return mesh.nhop_classes() + ring;
  if (name == "Duato") return 1 + 1 + ring;  // 1 class I + 1 XY escape
  if (name == "Duato-Pbc") return mesh.phop_classes() + 1 + ring;
  if (name == "Duato-Nbc") return mesh.nhop_classes() + 1 + ring;
  if (name == "Minimal-Adaptive" || name == "Fully-Adaptive") return 2 + ring;
  if (name == "Boura-Adaptive") return 2 + 1 + ring;
  if (name == "Boura-FT") return 2 + 1 + ring;
  throw std::invalid_argument("unknown algorithm: " + std::string(name));
}

std::unique_ptr<RoutingAlgorithm> make_algorithm(std::string_view name,
                                                 const Mesh& mesh,
                                                 const fault::FaultMap& faults,
                                                 const fault::FRingSet& rings,
                                                 const RoutingOptions& opts) {
  const int total = opts.total_vcs;
  if (total < min_vcs_required(name, mesh)) {
    throw std::invalid_argument("VC budget too small for " + std::string(name));
  }
  if (total > kMaxVcs) {
    throw std::invalid_argument("VC budget too large for " + std::string(name) +
                                ": at most " + std::to_string(kMaxVcs) +
                                " VCs per channel");
  }

  if (name == "PHop" || name == "Pbc" || name == "NHop" || name == "Nbc") {
    const bool positive = name == "PHop" || name == "Pbc";
    const bool bonus = name == "Pbc" || name == "Nbc";
    const int classes = positive ? mesh.phop_classes() : mesh.nhop_classes();
    auto layout = VcLayout::hop_based(total, classes,
                                      per_class_for(total, classes, true), true);
    auto base = std::make_unique<HopScheme>(
        mesh, faults, positive ? HopScheme::Kind::Positive : HopScheme::Kind::Negative,
        bonus, std::move(layout));
    return wrap_bc(mesh, faults, rings, std::move(base), std::string(name));
  }

  if (name == "Duato") {
    auto layout = VcLayout::duato(total, 0, 0, /*ring=*/true, /*xy=*/true);
    auto escape = std::make_unique<XyRouting>(mesh, faults, layout);
    auto base = std::make_unique<Duato>(mesh, faults, std::move(escape),
                                        std::move(layout), "Duato-core");
    return wrap_bc(mesh, faults, rings, std::move(base), "Duato");
  }

  if (name == "Duato-Pbc" || name == "Duato-Nbc") {
    const bool positive = name == "Duato-Pbc";
    const int classes = positive ? mesh.phop_classes() : mesh.nhop_classes();
    auto layout = VcLayout::duato(total, classes, 1, /*ring=*/true);
    auto escape = std::make_unique<HopScheme>(
        mesh, faults, positive ? HopScheme::Kind::Positive : HopScheme::Kind::Negative,
        /*bonus=*/true, layout);
    auto base = std::make_unique<Duato>(mesh, faults, std::move(escape),
                                        std::move(layout),
                                        std::string(name) + "-core");
    return wrap_bc(mesh, faults, rings, std::move(base), std::string(name));
  }

  if (name == "Minimal-Adaptive") {
    auto layout = VcLayout::adaptive(total, /*ring=*/true, opts.xy_escape);
    auto base = std::make_unique<MinimalAdaptive>(mesh, faults, std::move(layout));
    return wrap_bc(mesh, faults, rings, std::move(base), "Minimal-Adaptive");
  }

  if (name == "Fully-Adaptive") {
    auto layout = VcLayout::adaptive(total, /*ring=*/true, opts.xy_escape);
    auto base = std::make_unique<FullyAdaptive>(mesh, faults, std::move(layout),
                                                opts.misroute_limit);
    return wrap_bc(mesh, faults, rings, std::move(base), "Fully-Adaptive");
  }

  if (name == "Boura-Adaptive") {
    auto layout = VcLayout::duato(total, 2, 1, /*ring=*/true);
    auto base = std::make_unique<Boura>(mesh, faults, Boura::Variant::Adaptive,
                                        std::move(layout));
    return wrap_bc(mesh, faults, rings, std::move(base), "Boura-Adaptive");
  }

  if (name == "Boura-FT") {
    auto layout = VcLayout::duato(total, 2, 1, /*ring=*/true);
    auto base = std::make_unique<Boura>(mesh, faults,
                                        Boura::Variant::FaultTolerant,
                                        std::move(layout));
    return wrap_bc(mesh, faults, rings, std::move(base), "Boura-FT");
  }

  throw std::invalid_argument("unknown algorithm: " + std::string(name));
}

}  // namespace ftmesh::routing
