#pragma once
// Per-virtual-channel state of the wormhole router.
//
// Input VCs hold a FIFO flit buffer; the head message's pipeline stage and
// reserved output live apart from it, in the network's per-node route
// table (InputRoute).  Output VCs track downstream ownership (wormhole
// reservation from header until tail) and credit-based flow control.

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

/// One input VC's stage and, while Active, the output it reserved: a link
/// port and VC, or the ejection port (Local) at the worm's destination.
/// The Network keeps one per input VC in a flat per-node table
/// (Network::input_route), the only home of these facts, so the crossbar
/// match reads a request's output port from four bytes and loads the input
/// VC's buffer only for a winner.
struct InputRoute {
  IvcStage stage = IvcStage::Idle;
  std::uint8_t port = 0;  ///< output port index (port_index); Active only
  std::uint16_t vc = 0;   ///< output VC; Active only

  [[nodiscard]] bool active() const noexcept { return stage == IvcStage::Active; }
  [[nodiscard]] topology::Direction dir() const noexcept {
    return static_cast<topology::Direction>(port);
  }
};

/// An input VC is its flit buffer, one cache line at 64-byte alignment:
/// the switch phase touches it only to move a granted flit.
struct alignas(64) InputVc {
  FlitRing buf;

  [[nodiscard]] bool empty() const noexcept { return buf.empty(); }
};
static_assert(sizeof(InputVc) == 64 && alignof(InputVc) == 64,
              "an input VC must fill exactly one cache line");

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
