#pragma once
// Boura-Das routing (ICPP 1995), reconstructed — see DESIGN.md item 5.
//
// Base scheme ("Boura (Adaptive)"): fully adaptive minimal routing whose
// escape sub-function routes all positive-direction (X+, Y+) offsets before
// negative-direction offsets, on two dedicated escape classes.  The
// positive-then-negative order is acyclic, so the escape subnetwork is
// deadlock-free; the remaining channels form the adaptive class.
//
// Fault-tolerant variant ("Boura (Fault-Tolerant)"): adds the node-labeling
// technique.  A healthy node is *unsafe* when two or more of its neighbours
// are faulty, deactivated or unsafe (computed to fixpoint).  Messages prefer
// safe minimal hops, then unsafe-but-healthy minimal hops; hard fault
// blocks are detoured by the ring fortification around this algorithm (see
// DESIGN.md item 5 — the original's unrestricted misrouting is not
// deadlock-free under wormhole switching, so the reconstruction routes
// fault detours on dedicated ring channels instead).

#include <algorithm>
#include <vector>

#include "ftmesh/routing/routing_algorithm.hpp"

namespace ftmesh::routing {

class Boura : public RoutingAlgorithm {
 public:
  enum class Variant : std::uint8_t { Adaptive, FaultTolerant };

  Boura(const topology::Mesh& mesh, const fault::FaultMap& faults,
        Variant variant, VcLayout layout);

  [[nodiscard]] std::string_view name() const noexcept override {
    return variant_ == Variant::Adaptive ? "Boura-Adaptive" : "Boura-FT";
  }
  [[nodiscard]] const VcLayout& layout() const noexcept override { return layout_; }
  [[nodiscard]] Variant variant() const noexcept { return variant_; }

  void candidates(topology::Coord at, const router::HeaderState& msg,
                  CandidateList& out) const override;

  /// candidates() reads only the header position and destination.
  [[nodiscard]] std::uint64_t route_state_key(
      const router::HeaderState&) const noexcept override {
    return 0;
  }

  /// Strictly minimal on adaptive + escape channels; the escape class is
  /// pinned by the remaining-offset phase (positive offsets on class 0,
  /// negative on class 1), never by channel availability.
  [[nodiscard]] AuditProfile audit_profile() const noexcept override {
    AuditProfile profile;
    profile.role_mask = role_bit(VcRole::AdaptiveI) | role_bit(VcRole::EscapeII);
    profile.misroute_limit = 0;
    return profile;
  }
  [[nodiscard]] std::pair<int, int> audit_escape_window(
      topology::Coord at, const router::HeaderState& msg) const noexcept override {
    const int top = layout_.escape_class_count() - 1;
    const bool have_positive = msg.dst.x > at.x || msg.dst.y > at.y;
    const int klass = std::min(have_positive ? 0 : 1, top < 0 ? 0 : top);
    return {klass, klass};
  }

  /// FT: candidates() compares `next == msg.dst` at unsafe neighbours, so a
  /// node beside an unsafe one is not uniform.
  [[nodiscard]] bool uniform_at(topology::Coord at) const noexcept override {
    if (!RoutingAlgorithm::uniform_at(at)) return false;
    for (const auto d : topology::kAllMeshDirections) {
      const auto next = mesh().neighbour(at, d);
      if (next && unsafe(*next)) return false;
    }
    return true;
  }

  /// True when `c` carries the unsafe label (FT variant only; always false
  /// for the adaptive variant).
  [[nodiscard]] bool unsafe(topology::Coord c) const noexcept {
    return !unsafe_.empty() &&
           unsafe_[static_cast<std::size_t>(mesh().id_of(c))] != 0;
  }

  /// The unsafe labels are a fixpoint over the fault map; recompute them
  /// after a runtime fault/repair event.
  void on_fault_change() override {
    if (variant_ == Variant::FaultTolerant) label_unsafe_nodes();
  }

 private:
  void label_unsafe_nodes();

  Variant variant_;
  VcLayout layout_;
  std::vector<char> unsafe_;  // FT variant: 1 = unsafe
};

}  // namespace ftmesh::routing
