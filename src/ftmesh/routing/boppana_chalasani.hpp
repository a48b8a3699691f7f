#pragma once
// Boppana-Chalasani f-ring fortification (IEEE TC 1995), as a wrapper that
// turns any adaptive routing algorithm into a fault-tolerant one using four
// additional virtual channels per physical channel.
//
// Normal operation delegates to the wrapped algorithm.  When the header is
// *blocked by faults* — every minimal direction leads into a fault region —
// the message enters ring mode: it travels around the blocking region's
// f-ring on the ring channel dedicated to its message type (WE/EW/SN/NS),
// with a fixed per-type orientation (WE, SN clockwise; EW, NS counter-
// clockwise).  It leaves ring mode at the first node where a healthy
// minimal hop exists.  On an open f-chain, reaching the chain end reverses
// the traversal once, switching to the opposite-direction type's channel so
// the two traversal senses never share a channel.
//
// DESIGN.md item 4 records where this reconstruction simplifies the
// original's case analysis.

#include <memory>
#include <string>

#include "ftmesh/fault/fring.hpp"
#include "ftmesh/routing/routing_algorithm.hpp"

namespace ftmesh::routing {

class BoppanaChalasani : public RoutingAlgorithm {
 public:
  BoppanaChalasani(const topology::Mesh& mesh, const fault::FaultMap& faults,
                   const fault::FRingSet& rings,
                   std::unique_ptr<RoutingAlgorithm> base, std::string name);

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] const VcLayout& layout() const noexcept override {
    return base_->layout();
  }
  [[nodiscard]] const RoutingAlgorithm& base() const noexcept { return *base_; }

  void candidates(topology::Coord at, const router::HeaderState& msg,
                  CandidateList& out) const override;
  void on_inject(router::HeaderState& msg) const override { base_->on_inject(msg); }
  void on_hop(topology::Coord at, topology::Direction dir, int vc,
              router::HeaderState& msg) const override;
  void on_fault_change() override { base_->on_fault_change(); }
  /// Away from faults the ring layer adds nothing; the base decides.
  [[nodiscard]] bool uniform_at(topology::Coord at) const noexcept override {
    return base_->uniform_at(at);
  }

  /// The fortification adds ring channels but does not change which CDG the
  /// base algorithm's argument needs.
  [[nodiscard]] DeadlockArgument deadlock_argument() const noexcept override {
    return base_->deadlock_argument();
  }

  /// Base key widened with the ring-mode fields candidates() reads.  Stale
  /// ring fields are masked out while inactive (they are rewritten from
  /// scratch on the next ring entry), and `reversals` collapses to the one
  /// bit plan_ring_move inspects.
  [[nodiscard]] std::uint64_t route_state_key(
      const router::HeaderState& msg) const noexcept override;

  /// The base claim widened with the ring channels, plus the exit
  /// discipline: in ring mode the message leaves only at nodes strictly
  /// closer to the destination than its entry point.
  [[nodiscard]] AuditProfile audit_profile() const noexcept override {
    AuditProfile profile = base_->audit_profile();
    profile.role_mask |= role_bit(VcRole::BcRing);
    profile.ring_exit_strictly_closer = true;
    return profile;
  }
  [[nodiscard]] std::pair<int, int> audit_escape_window(
      topology::Coord at, const router::HeaderState& msg) const noexcept override {
    return base_->audit_escape_window(at, msg);
  }

  /// The planned ring move for a blocked/ring-mode header at `at`:
  /// (next ring node, region id, effective type, orientation, reversed).
  /// Exposed for tests.
  struct RingMove {
    topology::Coord next;
    int region = -1;
    router::MsgType type = router::MsgType::WE;
    fault::Orientation orientation = fault::Orientation::Clockwise;
    bool reversed = false;
  };
  [[nodiscard]] std::optional<RingMove> plan_ring_move(
      topology::Coord at, const router::HeaderState& msg) const;

 private:
  /// Region blocking the message at `at` (a minimal-direction neighbour
  /// inside a fault region), preferring the dimension that matches the
  /// message's row/column type.
  [[nodiscard]] std::optional<int> blocking_region(topology::Coord at,
                                                   topology::Coord dst) const;

  /// Appends the (direction, ring vc) candidate realising `move`.
  void add_ring_candidate(topology::Coord at, const RingMove& move,
                          CandidateList& out) const;

  const fault::FRingSet* rings_;
  std::unique_ptr<RoutingAlgorithm> base_;
  std::string name_;
};

/// WE<->EW, SN<->NS: the type whose fixed orientation is the reverse.
router::MsgType opposite_type(router::MsgType t) noexcept;

}  // namespace ftmesh::routing
