#pragma once
// Fixtures shared by the static-checker tests (test_verify, test_audit,
// test_state_space): seeded fault patterns and a deliberately malformed
// routing algorithm.

#include <array>
#include <cstdint>
#include <string_view>

#include "ftmesh/fault/fault_model.hpp"
#include "ftmesh/routing/routing_algorithm.hpp"
#include "ftmesh/sim/rng.hpp"
#include "ftmesh/topology/mesh.hpp"

namespace ftmesh::testing {

/// `count` random faulty nodes drawn the way the simulator draws them, so
/// checked patterns match runs with the same --faults/--seed.
inline fault::FaultMap make_faults(const topology::Mesh& mesh, int count,
                                   std::uint64_t seed) {
  if (count == 0) return fault::FaultMap(mesh);
  auto rng = sim::Rng(seed).derive(0xFA);
  return fault::FaultMap::random(mesh, count, rng);
}

/// Minimal adaptive routing that names VC 7 on a 1-VC layout: every
/// candidate it emits lies outside its own VC layout.
class BadVcRouting : public routing::RoutingAlgorithm {
 public:
  BadVcRouting(const topology::Mesh& mesh, const fault::FaultMap& faults)
      : RoutingAlgorithm(mesh, faults),
        layout_(routing::VcLayout::adaptive(1, /*ring=*/false, /*xy=*/false)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "Bad-Vc";
  }
  [[nodiscard]] const routing::VcLayout& layout() const noexcept override {
    return layout_;
  }
  void candidates(topology::Coord at, const router::HeaderState& msg,
                  routing::CandidateList& out) const override {
    std::array<topology::Direction, 2> dirs{};
    const int n = usable_minimal(at, msg.dst, dirs);
    for (int d = 0; d < n; ++d) {
      out.add(dirs[static_cast<std::size_t>(d)], 7);  // layout has 1 VC
    }
  }
  [[nodiscard]] routing::DeadlockArgument deadlock_argument() const noexcept override {
    return routing::DeadlockArgument::FullCdg;
  }
  [[nodiscard]] std::uint64_t route_state_key(
      const router::HeaderState&) const noexcept override {
    return 0;
  }

 private:
  routing::VcLayout layout_;
};

}  // namespace ftmesh::testing
