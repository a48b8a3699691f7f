#pragma once
// The routing-algorithm interface.
//
// An algorithm is a pure routing *relation*: given the header's current node
// and routing state it enumerates the legal (direction, virtual channel)
// pairs.  The router then keeps only pairs whose output VC is currently
// free, and the selection policy picks one.  State transitions (hop
// counters, bonus cards, ring mode) are applied by on_hop once the header
// actually moves.
//
// Instances are constructed per simulation against a fixed mesh + fault map
// and must be stateless across messages (all per-message state lives in
// HeaderState::rs), which makes them safe to share between the router pipeline
// and tests.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "ftmesh/fault/fault_model.hpp"
#include "ftmesh/fault/fring.hpp"
#include "ftmesh/router/message.hpp"
#include "ftmesh/routing/audit_profile.hpp"
#include "ftmesh/routing/vc_layout.hpp"
#include "ftmesh/sim/small_vec.hpp"
#include "ftmesh/topology/mesh.hpp"

namespace ftmesh::routing {

/// A specific output channel choice: direction plus VC index.
struct CandidateVc {
  topology::Direction dir = topology::Direction::Local;
  int vc = 0;

  friend constexpr bool operator==(const CandidateVc&, const CandidateVc&) = default;
};

/// The most VCs per physical channel: CandidateList stores each VC index
/// in a byte.  make_algorithm refuses a larger budget.
inline constexpr int kMaxVcs = 256;

/// Tiered candidate set.  Tier boundaries express preferences such as
/// Duato's "use class I; fall back to class II only when class I is busy"
/// and Fully-Adaptive's "misroute only when every minimal channel is busy".
/// The router tries tiers in order and allocates from the first tier with a
/// free channel.
///
/// Storage is two parallel byte arrays (direction, VC) with 16 inline
/// entries each: two bytes per candidate, so a route-cache entry holds a
/// typical list without a heap allocation.  dir(i) / vc(i) read one field;
/// operator[] materialises a CandidateVc by value for the cold consumers
/// (verifier, audit, diagnostics).
class CandidateList {
 public:
  void clear() noexcept {
    dirs_.clear();
    vcs_.clear();
    tiers_.clear();
  }
  void add(topology::Direction dir, int vc) {
    assert(vc >= 0 && vc < kMaxVcs && "VC index exceeds the SoA byte layout");
    dirs_.push_back(static_cast<std::uint8_t>(dir));
    vcs_.push_back(static_cast<std::uint8_t>(vc));
  }
  /// Closes the current tier; subsequent adds go to the next tier.  An
  /// empty tier is kept (as an empty range) so tier priorities are stable
  /// regardless of which tiers happened to produce candidates.
  void next_tier() {
    tiers_.push_back(static_cast<std::uint32_t>(dirs_.size()));
  }

  [[nodiscard]] bool empty() const noexcept { return dirs_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return dirs_.size(); }
  [[nodiscard]] CandidateVc operator[](std::size_t i) const {
    assert(i < dirs_.size());
    return {static_cast<topology::Direction>(dirs_[i]),
            static_cast<int>(vcs_[i])};
  }
  [[nodiscard]] topology::Direction dir(std::size_t i) const {
    assert(i < dirs_.size());
    return static_cast<topology::Direction>(dirs_[i]);
  }
  [[nodiscard]] int vc(std::size_t i) const {
    assert(i < vcs_.size());
    return static_cast<int>(vcs_[i]);
  }

  /// Number of tier ranges (boundaries + 1).  Zero when no candidate was
  /// added, even if tier boundaries were pushed (an all-empty list has no
  /// usable tiers); trailing ranges may be empty.
  [[nodiscard]] std::size_t tier_count() const noexcept {
    return dirs_.empty() ? 0 : tiers_.size() + 1;
  }

  /// Half-open range [begin, end) of tier `t` (t < tier_count()).
  [[nodiscard]] std::pair<std::size_t, std::size_t> tier_range(std::size_t t) const noexcept {
    assert(t < tier_count());
    const std::size_t begin = t == 0 ? 0 : tiers_[t - 1];
    const std::size_t end = t < tiers_.size() ? tiers_[t] : dirs_.size();
    assert(begin <= end && end <= dirs_.size());
    return {begin, end};
  }

  /// Tier-preserving in-place filter: drops candidates for which `keep`
  /// returns false and shifts tier boundaries left to match.  Tiers that
  /// lose all their candidates remain as empty ranges, exactly as if the
  /// algorithm had emitted them empty.
  template <typename Keep>
  void filter(Keep&& keep) {
    std::size_t w = 0;
    std::size_t ti = 0;
    for (std::size_t i = 0; i <= dirs_.size(); ++i) {
      while (ti < tiers_.size() && tiers_[ti] == i) {
        tiers_[ti] = static_cast<std::uint32_t>(w);
        ++ti;
      }
      if (i == dirs_.size()) break;
      if (keep(CandidateVc{static_cast<topology::Direction>(dirs_[i]),
                           static_cast<int>(vcs_[i])})) {
        dirs_[w] = dirs_[i];
        vcs_[w] = vcs_[i];
        ++w;
      }
    }
    dirs_.truncate(w);
    vcs_.truncate(w);
  }

  /// True when the inline small-buffer storage is still in use (the common
  /// case: the widest candidate set an algorithm emits on a 2-D mesh is
  /// well under the inline capacities).  Exposed for tests.
  [[nodiscard]] bool inline_storage() const noexcept {
    return dirs_.inline_storage() && vcs_.inline_storage() &&
           tiers_.inline_storage();
  }

  friend bool operator==(const CandidateList& a, const CandidateList& b) {
    return a.dirs_ == b.dirs_ && a.vcs_ == b.vcs_ && a.tiers_ == b.tiers_;
  }

 private:
  sim::SmallVec<std::uint8_t, 16> dirs_;
  sim::SmallVec<std::uint8_t, 16> vcs_;
  sim::SmallVec<std::uint32_t, 8> tiers_;
};

/// Which channel-dependency graph the static verifier (verify::) must prove
/// acyclic for an algorithm's deadlock-freedom argument to hold.  Boppana-
/// Chalasani ring channels are in neither subgraph: the verifier checks
/// them as a separate layer (no arc may wrap a fault ring) and the
/// fortification theorem covers dependencies crossing the layers.
enum class DeadlockArgument : std::uint8_t {
  /// Every non-ring channel the algorithm can use must form an acyclic CDG
  /// (hop-count ordering: the hop schemes, XY).
  FullCdg = 0,
  /// Only the escape subnetwork (every non-class-I, non-ring channel) must
  /// be acyclic; adaptive class-I channels may depend cyclically per
  /// Duato's theorem (Duato variants, Boura, the free-choice algorithms
  /// with an XY escape).
  EscapeCdg = 1,
};

/// Direction class of `dst` seen from `at`: (sign dx + 1) * 3 + (sign dy
/// + 1), in 0..8.  Away from faults a header's minimal directions, and so
/// its whole candidate set, follow from this class alone.
constexpr std::uint8_t direction_class(topology::Coord at,
                                       topology::Coord dst) noexcept {
  const int sx = (dst.x > at.x) - (dst.x < at.x);
  const int sy = (dst.y > at.y) - (dst.y < at.y);
  return static_cast<std::uint8_t>((sx + 1) * 3 + (sy + 1));
}

/// Neighbour-existence mask of `at`: bit d set when direction d stays on
/// the mesh, shifted into the high nibble of a route site.
[[nodiscard]] inline std::uint8_t site_base(const topology::Mesh& mesh,
                                            topology::Coord at) noexcept {
  unsigned mask = 0;
  for (const auto d : topology::kAllMeshDirections) {
    if (mesh.contains(at.step(d))) mask |= 1U << topology::port_index(d);
  }
  return static_cast<std::uint8_t>(mask << 4);
}

/// The route site of a header at `at` bound for `dst`: site_base | class.
/// Never 0xFF (the class is at most 8), which the kernel keeps free as its
/// "not uniform" marker.
[[nodiscard]] inline std::uint8_t route_site(const topology::Mesh& mesh,
                                             topology::Coord at,
                                             topology::Coord dst) noexcept {
  return static_cast<std::uint8_t>(site_base(mesh, at) |
                                   direction_class(at, dst));
}

class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual const VcLayout& layout() const noexcept = 0;

  /// Appends every legal (direction, vc) for `msg`'s header at node `at`.
  /// Must not offer directions off the mesh or into blocked nodes.
  virtual void candidates(topology::Coord at, const router::HeaderState& msg,
                          CandidateList& out) const = 0;

  /// The consumer-facing entry point: `candidates` with every pair whose
  /// directional channel is dead masked out (tier structure preserved).
  /// The router pipeline, verifier and audit engine all route through this
  /// so a link failure constrains every algorithm uniformly; with no dead
  /// links it is exactly `candidates`.
  void enumerate(topology::Coord at, const router::HeaderState& msg,
                 CandidateList& out) const {
    candidates(at, msg, out);
    if (faults_->dead_link_count() == 0) return;
    out.filter([&](const CandidateVc& c) {
      return faults_->link_alive(at, c.dir);
    });
  }

  /// Initialises per-message routing state at injection time.
  virtual void on_inject(router::HeaderState& msg) const { (void)msg; }

  /// Applies state transitions after the header moves from `at` through
  /// (dir, vc).  Default updates the generic hop counters.
  virtual void on_hop(topology::Coord at, topology::Direction dir, int vc,
                      router::HeaderState& msg) const;

  /// Notification that the fault map this algorithm references was mutated
  /// in place by a runtime reconfiguration event (inject/).  Algorithms
  /// that precompute per-node state from the fault map (e.g. Boura-FT's
  /// unsafe labels) recompute it here; the default is a no-op because
  /// `candidates` otherwise reads the map directly.  Called between cycles,
  /// never concurrently with routing.
  virtual void on_fault_change() {}

  // ---- static-verification hooks (verify::) ---------------------------

  /// Which CDG check proves this algorithm deadlock-free.
  [[nodiscard]] virtual DeadlockArgument deadlock_argument() const noexcept {
    return DeadlockArgument::EscapeCdg;
  }

  /// Canonical key of the routing-state fields `candidates` actually reads,
  /// with unbounded counters clamped at their behavioural saturation point.
  /// Contract: two messages with equal keys, equal destination and equal
  /// header position receive identical candidate sets, and equal keys map to
  /// equal keys under on_hop (congruence) — the verifier relies on this to
  /// make its reachable-state enumeration finite.  The default packs the raw
  /// counters, which is always sound but may blow up the verifier's state
  /// space; algorithms should override with their clamped projection.
  ///
  /// Stronger form, relied on by the kernel's route cache: at a node where
  /// uniform_at() holds, two headers not in ring mode with equal keys and
  /// equal route_site(at, dst) receive identical candidate sets (directions,
  /// VCs and tier boundaries), whatever their node and destination.  The
  /// audit's route-class check proves it over every reachable state.
  [[nodiscard]] virtual std::uint64_t route_state_key(
      const router::HeaderState& msg) const noexcept;

  /// True when nothing `candidates` reads at `at` can tell the node apart
  /// from any other node with the same neighbours: the node and every
  /// neighbour are healthy and every link of the node is alive, so routing
  /// there sees only the minimal directions of route_site.  Algorithms that
  /// read further per-node state (Boura-FT's unsafe labels) narrow it.
  /// Reads the fault map and derived labels as they stand: callers
  /// re-evaluate it only after on_fault_change() has run.
  [[nodiscard]] virtual bool uniform_at(topology::Coord at) const noexcept;

  // ---- static-audit hooks (verify/audit) ------------------------------

  /// The audit contract this algorithm claims (see audit_profile.hpp).  The
  /// default derives the role mask from the channels the layout actually
  /// contains and leaves misrouting unchecked; algorithms override with
  /// their design's tighter claim.
  [[nodiscard]] virtual AuditProfile audit_profile() const noexcept;

  /// Inclusive window [lo, hi] of EscapeII class levels a candidate emitted
  /// for `msg`'s header at `at` may carry.  Cross-checked by the audit
  /// against every EscapeII candidate; the default permits every class the
  /// layout has.  Algorithms with a class discipline (hop schemes, Boura's
  /// positive/negative phases) override with the exact window their
  /// candidates() enforces.
  [[nodiscard]] virtual std::pair<int, int> audit_escape_window(
      topology::Coord at, const router::HeaderState& msg) const noexcept;

 protected:
  RoutingAlgorithm(const topology::Mesh& mesh, const fault::FaultMap& faults)
      : mesh_(&mesh), faults_(&faults) {}

  [[nodiscard]] const topology::Mesh& mesh() const noexcept { return *mesh_; }
  [[nodiscard]] const fault::FaultMap& faults() const noexcept { return *faults_; }

  /// Minimal directions from `at` to msg.dst whose next node is healthy;
  /// returns count, writes into `dirs`.
  int usable_minimal(topology::Coord at, topology::Coord dst,
                     std::array<topology::Direction, 2>& dirs) const noexcept;

 private:
  const topology::Mesh* mesh_;
  const fault::FaultMap* faults_;
};

}  // namespace ftmesh::routing
