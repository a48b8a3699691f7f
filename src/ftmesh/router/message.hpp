#pragma once
// Messages and their per-header routing state.
//
// The routing state is deliberately a single flat struct shared by all ten
// algorithms: hop counters for the hop-based schemes, bonus-card accounting,
// misroute budget for Fully-Adaptive, and the Boppana-Chalasani ring-mode
// fields.  Each algorithm reads/writes only the fields it owns.

#include <cstdint>

#include "ftmesh/fault/fring.hpp"
#include "ftmesh/router/flit.hpp"
#include "ftmesh/topology/coordinates.hpp"

namespace ftmesh::router {

/// Boppana-Chalasani message type; selects the dedicated ring channel and
/// the fixed traversal orientation while on an f-ring.
enum class MsgType : std::uint8_t { WE = 0, EW = 1, SN = 2, NS = 3 };

inline constexpr int kMsgTypeCount = 4;

/// Classifies by the remaining offset from `at` to `dst`: row types first
/// (x offset pending), column types otherwise.
MsgType classify(topology::Coord at, topology::Coord dst) noexcept;

/// Fixed ring orientation per message type (WE, SN clockwise; EW, NS
/// counter-clockwise); one half of the deadlock-avoidance discipline.
fault::Orientation ring_orientation(MsgType t) noexcept;

/// Ring-mode state for the Boppana-Chalasani fortification.
struct RingState {
  bool active = false;
  int region = -1;
  MsgType vc_type = MsgType::WE;  ///< ring channel in use while active
  fault::Orientation orientation = fault::Orientation::Clockwise;
  std::uint16_t reversals = 0;  ///< chain-end reversals taken so far
  /// Manhattan distance to the destination at the node where the message
  /// entered ring mode.  The message leaves the ring only at nodes strictly
  /// closer than this — otherwise an "exit" hop could undo the detour and
  /// re-request the ring channel its own body still holds (self-deadlock).
  std::uint16_t entry_distance = 0;
};

/// Mutable routing state carried by the header flit.
struct RouteState {
  std::uint16_t hops = 0;           ///< total hops taken (all channels)
  std::uint16_t negative_hops = 0;  ///< hops from colour-1 to colour-0 nodes
  /// Hop-scheme buffer-class counter.  Unlike `hops`, this advances only on
  /// the base scheme's own hops, never on Boppana-Chalasani ring detours:
  /// counting ring hops would overrun the diameter-sized class budget and
  /// void the strictly-increasing-class deadlock argument (every non-ring
  /// hop is minimal, so class hops + ring arcs <= initial distance keeps
  /// the class within the top level).
  std::uint16_t class_hops = 0;
  std::uint16_t class_offset = 0;   ///< bonus cards spent so far
  std::uint16_t cards_left = 0;     ///< bonus cards remaining
  std::uint16_t misroutes = 0;      ///< non-minimal hops (Fully-Adaptive cap)
  topology::Direction last_dir = topology::Direction::Local;  ///< previous hop
  RingState ring;
};

/// The hot per-message state read and written every route step: endpoints
/// plus the mutable routing state.  Kept in a parallel array indexed by
/// message slot (SoA split) so the route stage never drags the cold
/// accounting fields of `Message` through the cache.
struct HeaderState {
  topology::Coord src;
  topology::Coord dst;
  RouteState rs;
};

/// Cold accounting record for a message occupying a slot.  A message is
/// live exactly while it occupies one: delivery and abort retire it into a
/// RetiredMessage and free the slot.  Endpoints are duplicated from
/// `HeaderState` so stats and traffic bookkeeping never touch the hot
/// array.
struct Message {
  MessageId id = kInvalidMessage;  ///< stable monotonic id (never a slot)
  topology::Coord src;
  topology::Coord dst;
  std::uint32_t length = 1;  ///< flits

  std::uint64_t created = 0;    ///< cycle the message entered the source queue
  std::uint64_t injected = 0;   ///< cycle the header entered the injection VC
  std::uint64_t delivered = 0;  ///< cycle the tail was ejected at dst

  // Dynamic-fault recovery bookkeeping (inject/).  A message flushed by a
  // runtime fault event is retransmitted from its source with bounded
  // retries, or aborted (endpoint lost, or the retry budget exhausted).
  // `created` is never rewritten, so the latency of a recovered message
  // includes every aborted attempt.
  std::uint16_t retries = 0;  ///< retransmissions performed so far
};

/// Everything the stats accumulators need from a finished message, frozen
/// the cycle its tail is ejected (or it is aborted).  Retiring into this
/// record is what lets the live slot be recycled: steady-state storage is
/// O(in-flight messages) plus one compact record per finished message.
struct RetiredMessage {
  MessageId id = kInvalidMessage;
  std::uint64_t created = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint32_t length = 0;
  std::uint16_t hops = 0;
  std::uint16_t misroutes = 0;
  std::uint16_t retries = 0;
  bool aborted = false;
  bool ring_user = false;  ///< ever entered an f-ring (rs.ring.region >= 0)
};

}  // namespace ftmesh::router
