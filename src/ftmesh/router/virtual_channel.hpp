#pragma once
// Per-virtual-channel state of the wormhole router.
//
// Input VCs hold a FIFO flit buffer plus the head message's pipeline stage;
// output VCs track downstream ownership (wormhole reservation from header
// until tail) and credit-based flow control.

#include <cstdint>

#include "ftmesh/router/flit.hpp"
#include "ftmesh/router/flit_ring.hpp"
#include "ftmesh/topology/coordinates.hpp"

namespace ftmesh::router {

/// Stage of the message at the head of an input VC buffer.
enum class IvcStage : std::uint8_t {
  Idle = 0,       ///< no message (or head flit not yet examined)
  RouteWait = 1,  ///< header at head, waiting for an output VC
  Active = 2,     ///< output VC reserved; flits stream through the switch
};

struct InputVc {
  FlitRing buf;
  IvcStage stage = IvcStage::Idle;
  topology::Direction out_dir = topology::Direction::Local;
  int out_vc = -1;

  [[nodiscard]] bool empty() const noexcept { return buf.empty(); }

  void release() noexcept {
    stage = IvcStage::Idle;
    out_vc = -1;
    out_dir = topology::Direction::Local;
  }
};

struct OutputVc {
  bool allocated = false;
  /// Flat input-VC index (`port * vcs + vc`) of the worm that reserved this
  /// output VC; meaningful only while `allocated`.  Lets a credit return
  /// find the input VC it unblocks without a search.
  std::uint16_t feeder = 0;
  MessageId owner = kInvalidMessage;
  int credits = 0;

  void allocate(MessageId m, std::uint16_t from) noexcept {
    allocated = true;
    feeder = from;
    owner = m;
  }
  void release() noexcept {
    allocated = false;
    owner = kInvalidMessage;
  }
};

}  // namespace ftmesh::router
