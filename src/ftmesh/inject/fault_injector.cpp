#include "ftmesh/inject/fault_injector.hpp"

#include "ftmesh/trace/trace_event.hpp"

namespace ftmesh::inject {

using router::MessageId;
using router::MessageSlot;

namespace {

void trace_abort(router::Network& net, MessageId id, topology::Coord src) {
  if (auto* sink = net.trace_sink()) {
    trace::Event e;
    e.cycle = net.cycle();
    e.kind = trace::EventKind::Abort;
    e.msg = id;
    e.node = src;
    sink->record(e);
  }
}

}  // namespace

bool FaultInjector::tick(router::Network& net) {
  const double now = static_cast<double>(net.cycle());

  // 1. Due retransmissions re-enter their source queue.  A retired id
  //    means the message was aborted after this entry was scheduled: skip
  //    it.  Ids are never reused, so the entry cannot name the slot's next
  //    occupant.  A live id has both endpoints active — requeue_message's
  //    precondition — because the fault map changes only in step 2, and
  //    the recovery pass after it aborts every live message whose endpoint
  //    died.
  while (retransmits_.due(now)) {
    const MessageId id = retransmits_.pop().payload;
    if (!net.message_finished(id)) net.requeue_message(id);
  }

  // 2. Due fault events reconfigure the live fault map.
  bool changed = false;
  while (schedule_.due(now)) {
    const FaultEvent ev = schedule_.pop();
    const ReconfigOutcome out = reconfig_.apply(ev);
    if (!out.applied) {
      ++log_.events_rejected;
      continue;
    }
    ++log_.events_applied;
    log_.rings_reused += out.rings_reused;
    log_.rings_rebuilt += out.rings_rebuilt;
    switch (ev.kind) {
      case FaultEventKind::Fail: ++log_.node_failures; break;
      case FaultEventKind::Repair: ++log_.node_repairs; break;
      case FaultEventKind::FailLink: ++log_.link_failures; break;
      case FaultEventKind::RepairLink: ++log_.link_repairs; break;
    }
    // Coupled transient repair: scheduled only now that the failure has
    // committed, so a rejected failure can never strand a stray repair.
    // repair_after > 0 keeps the new event strictly in the future, so the
    // while (due) loop above cannot pop it in the same pass.
    if (ev.repair_after > 0.0 &&
        (ev.kind == FaultEventKind::Fail ||
         ev.kind == FaultEventKind::FailLink)) {
      FaultEvent repair = ev;
      repair.kind = ev.kind == FaultEventKind::Fail
                        ? FaultEventKind::Repair
                        : FaultEventKind::RepairLink;
      repair.repair_after = 0.0;
      schedule_.add(now + ev.repair_after, repair);
    }
    log_.last_event_cycle = net.cycle();
    changed = true;
  }
  if (changed) recover(net);
  return changed;
}

void FaultInjector::recover(router::Network& net) {
  const double now = static_cast<double>(net.cycle());

  // Resource holders and endpoint-dead messages, in id order.
  const router::Network::FaultVictims victims = net.collect_fault_victims();
  log_.messages_flushed += victims.flushed;

  net.purge_messages(victims.slots);

  for (const MessageSlot slot : victims.slots) {
    const auto& m = net.slot_message(slot);
    const bool endpoint_dead =
        !net.faults().active(m.src) || !net.faults().active(m.dst);
    if (endpoint_dead || m.retries >= config_.max_retries) {
      ++log_.aborts;
      trace_abort(net, m.id, m.src);
      net.abort_message(m.id);
      continue;
    }
    net.slot_message_mut(slot).retries++;
    ++log_.retransmissions;
    const double delay =
        static_cast<double>(config_.retry_backoff)
        * static_cast<double>(1ULL << (m.retries - 1));
    retransmits_.schedule(now + delay, m.id);
  }
}

}  // namespace ftmesh::inject
