#include "ftmesh/routing/routing_algorithm.hpp"

namespace ftmesh::routing {

using topology::Coord;
using topology::Direction;

void RoutingAlgorithm::on_hop(Coord at, Direction dir, int vc,
                              router::HeaderState& msg) const {
  (void)vc;
  const Coord to = at.step(dir);
  ++msg.rs.hops;
  if (topology::Mesh::colour(at) == 1 && topology::Mesh::colour(to) == 0) {
    ++msg.rs.negative_hops;
  }
  if (topology::manhattan(to, msg.dst) >= topology::manhattan(at, msg.dst)) {
    ++msg.rs.misroutes;
  }
  msg.rs.last_dir = dir;
}

std::uint64_t RoutingAlgorithm::route_state_key(
    const router::HeaderState& msg) const noexcept {
  // Conservative default: every counter candidates() could read, unclamped.
  // Sound for any algorithm, but keeps distinct keys for states that may
  // behave identically; override with a clamped projection where possible.
  const auto& rs = msg.rs;
  std::uint64_t key = rs.hops;
  key = key << 10 | rs.negative_hops;
  key = key << 10 | rs.class_hops;
  key = key << 8 | (rs.class_offset & 0xFF);
  key = key << 8 | (rs.cards_left & 0xFF);
  key = key << 6 | (rs.misroutes & 0x3F);
  return key;
}

bool RoutingAlgorithm::uniform_at(Coord at) const noexcept {
  if (faults_->blocked(at)) return false;
  for (const auto d : topology::kAllMeshDirections) {
    const auto next = mesh_->neighbour(at, d);
    if (next && (faults_->blocked(*next) || !faults_->link_alive(at, d))) {
      return false;
    }
  }
  return true;
}

AuditProfile RoutingAlgorithm::audit_profile() const noexcept {
  // Derive the mask from the layout: the algorithm cannot legally claim a
  // role its layout has no channel for.  Misrouting stays unchecked unless
  // the algorithm declares its bound.
  AuditProfile profile;
  profile.role_mask = 0;
  const auto& lay = layout();
  for (int vc = 0; vc < lay.total(); ++vc) {
    profile.role_mask |= role_bit(lay.at(vc).role);
  }
  return profile;
}

std::pair<int, int> RoutingAlgorithm::audit_escape_window(
    Coord at, const router::HeaderState& msg) const noexcept {
  (void)at;
  (void)msg;
  return {0, layout().escape_class_count() - 1};
}

int RoutingAlgorithm::usable_minimal(Coord at, Coord dst,
                                     std::array<Direction, 2>& dirs) const noexcept {
  std::array<Direction, 2> minimal{};
  const int n = mesh_->minimal_directions_into(at, dst, minimal);
  int m = 0;
  for (int i = 0; i < n; ++i) {
    const Coord next = at.step(minimal[static_cast<std::size_t>(i)]);
    if (!faults_->blocked(next) &&
        faults_->link_alive(at, minimal[static_cast<std::size_t>(i)])) {
      dirs[static_cast<std::size_t>(m++)] = minimal[static_cast<std::size_t>(i)];
    }
  }
  return m;
}

}  // namespace ftmesh::routing
