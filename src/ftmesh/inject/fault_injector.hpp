#pragma once
// The dynamic fault engine: drives scheduled fault events through the
// Reconfigurator and runs the message-recovery protocol over the network.
//
// Recovery protocol (per applied event):
//   1. collect victims — every message with a flit in, or a channel
//      reservation at / into, a now-blocked node, plus every undelivered
//      message whose source or destination died;
//   2. purge — their flits are flushed network-wide, reservations released,
//      credits restored (Network::purge_messages);
//   3. retransmit or abort — victims with live endpoints and retry budget
//      left are re-injected from their source after an exponential backoff
//      (delay = retry_backoff << retries); endpoint-dead or budget-
//      exhausted messages are aborted.
//
// The injector keeps its own retransmission event queue; `tick` is called
// once per cycle *before* the traffic generator so reconfiguration and
// re-injection happen between network cycles, never mid-phase.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "ftmesh/inject/fault_schedule.hpp"
#include "ftmesh/inject/reconfigurator.hpp"
#include "ftmesh/router/network.hpp"
#include "ftmesh/sim/event_queue.hpp"

namespace ftmesh::inject {

/// The largest retry budget: retry r waits retry_backoff << (r - 1), a
/// 64-bit shift, so a budget above 64 would shift past the word.
inline constexpr int kMaxRetryBudget = 64;

struct InjectConfig {
  int max_retries = 3;               ///< retransmissions per message, <= 64
  std::uint64_t retry_backoff = 64;  ///< base delay, doubled per retry
};

/// Running totals of the engine's activity; feeds the reliability stats.
struct InjectLog {
  int events_applied = 0;
  int events_rejected = 0;
  int node_failures = 0;
  int node_repairs = 0;
  int link_failures = 0;
  int link_repairs = 0;
  int rings_reused = 0;
  int rings_rebuilt = 0;
  std::uint64_t messages_flushed = 0;  ///< victims purged from the network
  std::uint64_t retransmissions = 0;   ///< retransmits scheduled
  std::uint64_t aborts = 0;            ///< messages permanently given up
  std::uint64_t last_event_cycle = 0;  ///< cycle of the last applied event
};

class FaultInjector {
 public:
  FaultInjector(FaultSchedule schedule, fault::FaultMap& map,
                fault::FRingSet& rings, InjectConfig config)
      : schedule_(std::move(schedule)),
        reconfig_(map, rings),
        config_(config) {
    if (config_.max_retries > kMaxRetryBudget) {
      throw std::invalid_argument("max_retries must be <= " +
                                  std::to_string(kMaxRetryBudget));
    }
  }

  /// Applies every due retransmission and fault event at the network's
  /// current cycle.  Returns true when the topology changed (the caller
  /// must then refresh fault-derived caches: ring state revalidation,
  /// watchdog reset, algorithm/traffic refresh).
  bool tick(router::Network& net);

  /// No pending fault events or retransmissions.
  [[nodiscard]] bool idle() const noexcept {
    return schedule_.empty() && retransmits_.empty();
  }

  /// No pending retransmissions.  The drain phase waits for this rather
  /// than idle(): flushed messages must re-inject and complete, but fault
  /// events scheduled past the end of the run are simply never executed.
  [[nodiscard]] bool quiescent() const noexcept { return retransmits_.empty(); }

  [[nodiscard]] const InjectLog& log() const noexcept { return log_; }
  [[nodiscard]] const FaultSchedule& schedule() const noexcept {
    return schedule_;
  }

 private:
  void recover(router::Network& net);

  FaultSchedule schedule_;
  Reconfigurator reconfig_;
  InjectConfig config_;
  /// Pending retransmissions carry stable message ids, not slots: a
  /// message aborted while waiting out its backoff frees (and may recycle)
  /// its slot, and its id — never reused — is then simply no longer live
  /// when the entry pops.
  sim::EventQueue<router::MessageId> retransmits_;
  InjectLog log_;
};

}  // namespace ftmesh::inject
