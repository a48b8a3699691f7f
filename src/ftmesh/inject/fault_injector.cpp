#include "ftmesh/inject/fault_injector.hpp"

#include <algorithm>
#include <vector>

#include "ftmesh/trace/trace_event.hpp"

namespace ftmesh::inject {

using router::MessageHandle;
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

  // 1. Due retransmissions re-enter their source queue.  A message whose
  //    endpoint died while it waited out its backoff is aborted here (the
  //    recovery pass only sees messages holding network resources).  A
  //    stale handle means the message was aborted after this entry was
  //    scheduled (its slot retired, possibly already reused): skip it.
  while (retransmits_.due(now)) {
    const MessageHandle h = retransmits_.pop().payload;
    if (!net.handle_live(h)) continue;
    const auto& m = net.slot_message(h.slot);
    if (m.done || m.aborted) continue;  // recycling off: retired in place
    if (!net.faults().active(m.src) || !net.faults().active(m.dst)) {
      const MessageId id = m.id;
      const topology::Coord src = m.src;
      ++log_.aborts;
      trace_abort(net, id, src);
      net.abort_message(h.slot);
      continue;
    }
    net.requeue_message(h.slot);
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

  // Victims holding network resources the new map invalidates...
  std::vector<MessageSlot> victims = net.collect_fault_victims();
  log_.messages_flushed += victims.size();

  // ...plus undelivered messages whose endpoints died: they may hold
  // nothing (still queued at a dead source) but can never complete.
  const auto& slots = net.messages();
  for (MessageSlot s = 0; s < slots.size(); ++s) {
    const auto& m = slots[s];
    if (m.id == router::kInvalidMessage || m.done || m.aborted) continue;
    if (!net.faults().active(m.src) || !net.faults().active(m.dst)) {
      victims.push_back(s);
    }
  }
  // Dedupe on slots, then order by stable id so purge-trace emission and
  // the retransmit schedule are independent of slot assignment.
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  std::sort(victims.begin(), victims.end(), [&](MessageSlot a, MessageSlot b) {
    return net.slot_message(a).id < net.slot_message(b).id;
  });

  net.purge_messages(victims);

  for (const MessageSlot slot : victims) {
    const auto& m = net.slot_message(slot);
    if (m.id == router::kInvalidMessage || m.done || m.aborted) continue;
    const bool endpoint_dead =
        !net.faults().active(m.src) || !net.faults().active(m.dst);
    if (endpoint_dead || m.retries >= config_.max_retries) {
      ++log_.aborts;
      trace_abort(net, m.id, m.src);
      net.abort_message(slot);
      continue;
    }
    net.slot_message_mut(slot).retries++;
    ++log_.retransmissions;
    const double delay =
        static_cast<double>(config_.retry_backoff)
        * static_cast<double>(1ULL << (m.retries - 1));
    retransmits_.schedule(now + delay, net.slot_handle(slot));
  }
}

}  // namespace ftmesh::inject
