#pragma once
// Structured message/flit lifecycle events.
//
// Every event is emitted from a point that visits work in ascending node
// id and goes straight to the sink, so a trace — like every other report —
// is a pure function of the configuration and seed.  The arrivals phase,
// which drains link registers in register order, emits no event.

#include <cstdint>
#include <string_view>

#include "ftmesh/router/message.hpp"
#include "ftmesh/topology/coordinates.hpp"

namespace ftmesh::trace {

enum class EventKind : std::uint8_t {
  Create = 0,   ///< message entered its source queue        (a = length)
  Inject,       ///< header flit entered the injection VC
  VcAlloc,      ///< header allocated an output VC           (dir, vc)
  Block,        ///< header found every candidate busy (transition only)
  Unblock,      ///< previously blocked header allocated a channel
  RingEnter,    ///< entered f-ring mode          (a = region, b = entry dist)
  RingExit,     ///< left f-ring mode             (a = region)
  Misroute,     ///< took a non-minimal hop       (a = misroutes so far)
  Eject,        ///< tail ejected at destination  (a = hops, b = misroutes)
  Purge,        ///< flushed by the dynamic-fault recovery protocol
  Retransmit,   ///< re-entered its source queue  (a = retries so far)
  Abort,        ///< permanently given up (endpoint lost / retries exhausted)
};

inline constexpr int kEventKindCount = 12;

constexpr std::string_view to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::Create: return "create";
    case EventKind::Inject: return "inject";
    case EventKind::VcAlloc: return "vc_alloc";
    case EventKind::Block: return "block";
    case EventKind::Unblock: return "unblock";
    case EventKind::RingEnter: return "ring_enter";
    case EventKind::RingExit: return "ring_exit";
    case EventKind::Misroute: return "misroute";
    case EventKind::Eject: return "eject";
    case EventKind::Purge: return "purge";
    case EventKind::Retransmit: return "retransmit";
    case EventKind::Abort: return "abort";
  }
  return "?";
}

/// One lifecycle event.  `dir`/`vc` are meaningful only for VcAlloc; the
/// kind-specific payload words `a`/`b` are documented per kind above.
struct Event {
  std::uint64_t cycle = 0;
  EventKind kind = EventKind::Create;
  router::MessageId msg = router::kInvalidMessage;
  topology::Coord node;
  topology::Direction dir = topology::Direction::Local;
  std::int16_t vc = -1;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// Event consumer.  The network holds a nullable pointer to one of these;
/// a null pointer is the "tracing off" fast path (one always-false branch
/// per emission point), so sinks only pay when attached.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const Event& e) = 0;
  /// Finalises any buffered output (e.g. the Chrome-trace array footer).
  /// Safe to call more than once.
  virtual void flush() {}
};

}  // namespace ftmesh::trace
