#pragma once
// One mesh router: 5 ports (4 links + local injection/ejection), V virtual
// channels per port, full crossbar.
//
// The router is a passive state container; the Network drives the per-cycle
// phases (it owns inter-router concerns: links, credits, arbitration RNG).

#include <vector>

#include "ftmesh/router/virtual_channel.hpp"
#include "ftmesh/topology/coordinates.hpp"

namespace ftmesh::router {

class Router {
 public:
  Router() = default;
  Router(topology::Coord where, int vcs, int buffer_depth);

  [[nodiscard]] topology::Coord where() const noexcept { return where_; }
  [[nodiscard]] int vcs() const noexcept { return vcs_; }

  [[nodiscard]] InputVc& input(int port, int vc) noexcept {
    return inputs_[static_cast<std::size_t>(port * vcs_ + vc)];
  }
  [[nodiscard]] const InputVc& input(int port, int vc) const noexcept {
    return inputs_[static_cast<std::size_t>(port * vcs_ + vc)];
  }
  /// Input VC by flat index `port * vcs() + vc` — the bit index of the
  /// network's per-node input-VC ready masks.
  [[nodiscard]] InputVc& input_at(std::size_t idx) noexcept {
    return inputs_[idx];
  }
  [[nodiscard]] const InputVc& input_at(std::size_t idx) const noexcept {
    return inputs_[idx];
  }
  [[nodiscard]] OutputVc& output(int port, int vc) noexcept {
    return outputs_[static_cast<std::size_t>(port * vcs_ + vc)];
  }
  [[nodiscard]] const OutputVc& output(int port, int vc) const noexcept {
    return outputs_[static_cast<std::size_t>(port * vcs_ + vc)];
  }

  /// Total flits buffered in this router's input VCs.
  [[nodiscard]] std::uint64_t buffered_flits() const noexcept;

 private:
  topology::Coord where_;
  int vcs_ = 0;
  std::vector<InputVc> inputs_;    // [port][vc]
  std::vector<OutputVc> outputs_;  // [port][vc]
};

}  // namespace ftmesh::router
