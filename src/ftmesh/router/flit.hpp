#pragma once
// Flits: the unit of wormhole flow control.
//
// Messages are split into fixed-size flits; only the header carries routing
// information (here: a message id that indexes the network's message table).
// Body and tail flits follow the header's reserved virtual-channel path.

#include <cstdint>

namespace ftmesh::router {

using MessageId = std::uint32_t;
inline constexpr MessageId kInvalidMessage = 0xffffffffu;

/// Index into the network's message slot table.  With slot recycling
/// enabled a slot is reused after its message retires, so a slot is *not*
/// a stable identifier: the externally visible `Message::id` stays a
/// monotonically increasing counter, while flits, VC owners and source
/// queues all carry slots.  The allocator assigns slots in its own order
/// in every mode; only the id is ever reported.
using MessageSlot = std::uint32_t;

enum class FlitType : std::uint8_t {
  Head = 0,
  Body = 1,
  Tail = 2,
  HeadTail = 3,  ///< single-flit message
};

constexpr bool is_head(FlitType t) noexcept {
  return t == FlitType::Head || t == FlitType::HeadTail;
}
constexpr bool is_tail(FlitType t) noexcept {
  return t == FlitType::Tail || t == FlitType::HeadTail;
}

/// A flit in a buffer or on a link.  `seq` is its index within the message
/// (0 = header), used by tests to verify in-order, non-interleaved delivery.
/// `msg` is the message's *slot* in the network table, not its stable id.
struct Flit {
  MessageSlot msg = kInvalidMessage;
  std::uint32_t seq = 0;
  FlitType type = FlitType::Head;
};

}  // namespace ftmesh::router
