#pragma once
// The wormhole-switched mesh network: routers, links, credits, injection
// and ejection, driven one cycle at a time.
//
// Cycle phases (two-phase update; see DESIGN.md item 1):
//   1. arrivals   — flits on link registers enter downstream input buffers
//   2. injection  — source queues feed flits into local input VCs
//   3. routing    — headers at buffer heads request and allocate output VCs
//   4. switching  — crossbar arbitration (random), link/ejection traversal,
//                   credit return
//   5. sampling   — watchdog + optional VC-usage / traffic-map accumulation
//
// Timing model: one flit per link per cycle; single-cycle routers; random
// resolution of all conflicts (per the paper).  A step walks the whole
// mesh on the calling thread.  Credit returns and tail retirements are
// deferred to a commit after switching, so a freed buffer slot is seen
// upstream on the next cycle.
//
// Scheduling: the per-cycle phases are occupancy-driven.  The network keeps
// exact per-node input-VC bitmasks of routable headers, sendable
// (switch-ready) flits and credit-blocked worms, the set of nodes with
// pending injection work, and the set of full link registers, updated at
// every occupancy-changing point (arrival, injection, route allocation,
// switch traversal, credit return, tail release, purge).  Each phase visits
// only nodes with work and, at those nodes, only the input VCs whose ready
// bit is set.  recount_occupancy() is the one from-scratch definition of
// that state: the rebuild after bulk mutations installs it and the level-2
// audit (audit_invariants) compares every bit against it — see
// docs/performance.md for the invariants and the determinism argument.

#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ftmesh/fault/fault_model.hpp"
#include "ftmesh/router/counters.hpp"
#include "ftmesh/router/crossbar.hpp"
#include "ftmesh/router/message.hpp"
#include "ftmesh/router/router.hpp"
#include "ftmesh/routing/routing_algorithm.hpp"
#include "ftmesh/routing/selection.hpp"
#include "ftmesh/sim/bit_walk.hpp"
#include "ftmesh/sim/rng.hpp"
#include "ftmesh/sim/watchdog.hpp"
#include "ftmesh/trace/trace_event.hpp"

namespace ftmesh::router {

/// Retired switch: the kernel has one scan, the occupancy-driven one
/// (Active).  The Network constructor rejects Full.  The enum and
/// NetworkConfig::scan_mode stay only while perfbench still assigns them;
/// ROADMAP item 1's benchmark change deletes both.
enum class ScanMode : std::uint8_t {
  Full = 0,
  Active = 1,
};

/// Thrown by Network::audit_invariants when a runtime invariant is broken.
/// The message names the violated identity and the cycle it was caught on.
class AuditError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

struct NetworkConfig {
  int buffer_depth = 2;       ///< flit slots per input VC
  int injection_vcs = 1;      ///< concurrent injection channels per node
  routing::SelectionPolicy selection = routing::SelectionPolicy::Random;
  /// Retired: must stay Active (the constructor rejects Full).  Deleted
  /// with ScanMode by ROADMAP item 1's benchmark change.
  ScanMode scan_mode = ScanMode::Active;
  /// Retired: must stay true (the constructor rejects false).  Candidate
  /// sets are always memoized.  Deleted by ROADMAP item 1's benchmark
  /// change.
  bool route_cache = true;
  /// Retired: must stay true (the constructor rejects false).  Message
  /// slots always recycle.  Deleted by ROADMAP item 1's benchmark change.
  bool recycle_messages = true;
  /// Retired: must stay true (the constructor rejects false).  Message
  /// slots come from one free list.  Deleted by ROADMAP item 1's benchmark
  /// change.
  bool shard_alloc = true;
  bool collect_vc_usage = false;
  bool collect_traffic_map = false;
  bool collect_kernel_stats = false;  ///< cache hit rate + active-set sizes
  std::uint64_t watchdog_patience = 2000;
  /// Retired: the kernel steps the whole mesh as one unit on the calling
  /// thread and ignores both fields.  They stay only while perfbench still
  /// assigns them; ROADMAP item 1's benchmark change deletes them.
  int tiles = 1;
  int step_threads = 1;
};

class Network {
 public:
  Network(const topology::Mesh& mesh, const fault::FaultMap& faults,
          const routing::RoutingAlgorithm& algorithm, NetworkConfig config,
          sim::Rng rng);

  /// Creates a message and appends it to `src`'s source queue; it injects
  /// from the next step() on.  Called between cycles, so id order is call
  /// order.  Both endpoints must be active nodes.  Returns the message's
  /// stable id — a monotonically increasing counter, never a (reusable)
  /// slot index.
  MessageId create_message(topology::Coord src, topology::Coord dst,
                           std::uint32_t length);

  /// Advances the network by one cycle.
  void step();

  /// Marks the warm-up boundary: snapshots the counters, so the window
  /// accessors count from here.
  void begin_measurement();

  // ---- observers -------------------------------------------------------

  [[nodiscard]] std::uint64_t cycle() const noexcept { return cycle_; }
  [[nodiscard]] const topology::Mesh& mesh() const noexcept { return *mesh_; }
  [[nodiscard]] const fault::FaultMap& faults() const noexcept { return *faults_; }
  [[nodiscard]] const routing::RoutingAlgorithm& algorithm() const noexcept {
    return *algorithm_;
  }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }

  /// Access to a *live* message by its stable id, translated through the
  /// live-id map (unchecked indexing plus a debug-build assert).  Calling
  /// this for a retired id is a contract violation — use
  /// message_finished() / retired_record().
  [[nodiscard]] const Message& message(MessageId id) const {
    return messages_[slot_of(id)];
  }
  /// The message *slot table* (indexed by slot, not id).  Free slots are
  /// marked by `id == kInvalidMessage` and finished occupants have already
  /// moved to retired(); iterate accordingly.
  [[nodiscard]] const std::vector<Message>& messages() const noexcept {
    return messages_;
  }
  /// Hot per-slot routing state, parallel to messages().
  [[nodiscard]] const std::vector<HeaderState>& headers() const noexcept {
    return headers_;
  }
  /// Routing state of a live message, by stable id.
  [[nodiscard]] const RouteState& route_state(MessageId id) const {
    return headers_[slot_of(id)].rs;
  }

  /// Compact per-message records frozen at retirement (tail ejected or
  /// aborted), in retirement order.  The stats accumulators read this log.
  [[nodiscard]] const std::vector<RetiredMessage>& retired() const noexcept {
    return retired_;
  }
  /// Retirement record for `id`, or nullptr while the message is still
  /// live.  Linear scan — diagnostics and tests, not the per-cycle path.
  [[nodiscard]] const RetiredMessage* retired_record(MessageId id) const;
  /// True once the message retired (delivered or aborted); false while it
  /// is live.
  [[nodiscard]] bool message_finished(MessageId id) const;

  /// Total ids handed out by create_message (monotonic, never reused).
  [[nodiscard]] MessageId messages_created() const noexcept {
    return next_message_id_;
  }
  /// Current slot-table size: the high-water mark of concurrently live
  /// messages (grow-only; the long-run memory test pins this).
  [[nodiscard]] std::size_t message_slots() const noexcept {
    return messages_.size();
  }
  /// Vacant slots waiting on the free list.
  [[nodiscard]] std::size_t free_message_slots() const noexcept {
    return free_slots_.size();
  }

  [[nodiscard]] const Router& router_at(topology::Coord c) const {
    return routers_[static_cast<std::size_t>(mesh_->id_of(c))];
  }
  /// Stage and reserved output of input VC (`port`, `vc`) at `c`: the
  /// route-table entry the kernel routes and switches by.
  [[nodiscard]] const InputRoute& input_route(topology::Coord c, int port,
                                              int vc) const {
    return routes(mesh_->id_of(c))[port * vcs_ + vc];
  }

  [[nodiscard]] std::size_t source_queue_length(topology::Coord c) const {
    return queues_[static_cast<std::size_t>(mesh_->id_of(c))].size();
  }
  /// True while one of `c`'s injection supplies is mid-message.
  [[nodiscard]] bool injecting(topology::Coord c) const {
    return !supplies_idle(mesh_->id_of(c));
  }

  /// True when no flit is buffered anywhere and every source queue and
  /// injection supply is idle (no node has its inject bit set) — the
  /// network has fully drained.  O(mask words).
  [[nodiscard]] bool drained() const noexcept {
    return buffered_flits_ == 0 && active_inject_nodes() == 0;
  }

  [[nodiscard]] std::uint64_t flits_in_network() const noexcept {
    return buffered_flits_;
  }
  [[nodiscard]] const sim::Watchdog& watchdog() const noexcept { return watchdog_; }

  /// Forgives the current idle streak (and a tripped state).  Called by the
  /// fault injector after every reconfiguration so a transient flush /
  /// ring-rebuild stall is not misreported as a deadlock.
  void reset_watchdog() noexcept { watchdog_.reset(); }

  // ---- dynamic-fault recovery (inject/) --------------------------------
  //
  // The fault map the network references is mutated in place by the
  // reconfigurator between cycles; these methods implement the
  // Boppana-Chalasani dynamic-fault recovery protocol on top of it: flush
  // every worm the event severed, then retransmit from the source.

  /// The messages the *current* fault map invalidates.
  struct FaultVictims {
    /// Every live message with a flit buffered in (or a channel reserved
    /// at / into) a blocked node or a dead link, or mid-injection from a
    /// blocked node, plus every live message whose source or destination
    /// is no longer active.  Duplicate-free slots, sorted by stable id, so
    /// downstream trace emission and retransmit scheduling never depend on
    /// slot assignment.
    std::vector<MessageSlot> slots;
    /// How many of `slots` hold network resources (the flushed count);
    /// the rest only lost an endpoint.
    std::size_t flushed = 0;
  };
  /// Cheap in the network scan when nothing changed (long-blocked nodes
  /// hold no flits); the endpoint check visits every slot.
  [[nodiscard]] FaultVictims collect_fault_victims() const;

  /// Removes every flit of the given messages from input buffers and link
  /// registers, releases their channel reservations and injection supplies,
  /// drops them from source queues, and restores the freed credits.  The
  /// messages themselves stay in the table (for retransmission/abort
  /// accounting); surviving traffic is untouched.  Rebuilds the active sets
  /// from scratch afterwards (rare event; a full rescan is simpler than
  /// tracking every removal).
  void purge_messages(const std::vector<MessageSlot>& slots);

  /// Re-enqueues a previously purged live message at its source with
  /// fresh routing state.  Both endpoints must be active again.
  void requeue_message(MessageId id);

  /// Permanently gives up on a live (already purged) message: retires it
  /// as aborted, recycling the slot.  The caller does its own abort
  /// accounting/trace emission first — the slot's fields are gone
  /// afterwards.
  void abort_message(MessageId id);

  /// Slot-addressed access for the recovery path, which works on purge
  /// victims (slots) directly.
  [[nodiscard]] const Message& slot_message(MessageSlot slot) const {
    assert(slot < messages_.size());
    return messages_[slot];
  }
  [[nodiscard]] Message& slot_message_mut(MessageSlot slot) {
    assert(slot < messages_.size());
    return messages_[slot];
  }

  /// Clears ring-mode routing state that a ring rebuild invalidated: any
  /// in-flight header whose recorded region no longer exists or whose ring
  /// no longer passes through the header's position re-enters ring mode
  /// from scratch on its next routing decision.
  void revalidate_ring_state(const fault::FRingSet& rings);

  /// Invalidates state derived from the fault map: drops every memoized
  /// route-candidate set (their enumeration read the old map / rings),
  /// marks the route-site table stale and rebuilds the active sets.  Must
  /// be called after any in-place fault-map mutation, alongside the
  /// algorithm's own on_fault_change(), in either order: the site table
  /// reads the algorithm's uniform_at(), so it is rebuilt only when the
  /// next routing phase starts, after both have run.
  void on_fault_change();

  // ---- counters --------------------------------------------------------
  //
  // The kernel counts every event once, into whole-run Counters (cycle 0
  // on), plus per-VC VC-usage sums and per-node switch traversals.
  // begin_measurement() snapshots all three and the cycle; each window
  // accessor below returns the growth past that snapshot (0 before it), so
  // the warm-up window and a metrics interval are the same subtraction.

  /// Whole-run counts (the per-interval time series reads these).
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  /// Whole-run count of route-cache flushes by fault changes.
  [[nodiscard]] std::uint64_t route_cache_invalidations() const noexcept {
    return route_cache_invalidations_;
  }

  /// Cycles stepped since begin_measurement().
  [[nodiscard]] std::uint64_t measured_cycles() const noexcept {
    return measuring_ ? cycle_ - mark_cycle_ : 0;
  }
  [[nodiscard]] std::uint64_t measured_flits_delivered() const noexcept {
    return since_mark(&Counters::flits_delivered);
  }
  [[nodiscard]] std::uint64_t measured_messages_delivered() const noexcept {
    return since_mark(&Counters::messages_delivered);
  }
  [[nodiscard]] std::uint64_t measured_flits_generated() const noexcept {
    return since_mark(&Counters::flits_generated);
  }

  /// Per-VC-index count of (router, link port, cycle) samples where the
  /// output VC was reserved; normalise by vc_usage_samples().
  [[nodiscard]] std::vector<std::uint64_t> vc_busy_counts() const {
    return since_mark(vc_busy_counts_, vc_busy_mark_);
  }
  [[nodiscard]] std::uint64_t vc_usage_samples() const noexcept {
    return since_mark(&Counters::vc_usage_samples);
  }

  /// Per-node switch traversals (flits) during the measurement window.
  [[nodiscard]] std::vector<std::uint64_t> node_traffic() const {
    return since_mark(node_traffic_, node_traffic_mark_);
  }

  // Adaptivity: how much channel choice the algorithm offered per routing
  // decision, and how much of it was free.  Quantifies the paper's
  // "flexibility in choosing the virtual channels".
  [[nodiscard]] std::uint64_t measured_route_decisions() const noexcept {
    return since_mark(&Counters::route_decisions);
  }
  [[nodiscard]] std::uint64_t measured_candidates_offered() const noexcept {
    return since_mark(&Counters::candidates_offered);
  }
  [[nodiscard]] std::uint64_t measured_candidates_free() const noexcept {
    return since_mark(&Counters::candidates_free);
  }

  // Kernel counters (see stats/kernel_stats.hpp for the derived summary):
  // route-cache lookups and hits, and the exact per-cycle active-set sizes
  // summed while `collect_kernel_stats` is on.
  [[nodiscard]] std::uint64_t route_cache_lookups() const noexcept {
    return since_mark(&Counters::cache_lookups);
  }
  [[nodiscard]] std::uint64_t route_cache_hits() const noexcept {
    return since_mark(&Counters::cache_hits);
  }
  [[nodiscard]] std::uint64_t kernel_samples() const noexcept {
    return since_mark(&Counters::kernel_samples);
  }
  [[nodiscard]] std::uint64_t kernel_route_nodes_sum() const noexcept {
    return since_mark(&Counters::kernel_route_nodes_sum);
  }
  [[nodiscard]] std::uint64_t kernel_switch_nodes_sum() const noexcept {
    return since_mark(&Counters::kernel_switch_nodes_sum);
  }
  [[nodiscard]] std::uint64_t kernel_inject_nodes_sum() const noexcept {
    return since_mark(&Counters::kernel_inject_nodes_sum);
  }
  [[nodiscard]] std::uint64_t kernel_link_regs_sum() const noexcept {
    return since_mark(&Counters::kernel_link_regs_sum);
  }

  /// Observation hook: called for every flit consumed at a destination,
  /// from the switch phase in ascending node order (at most one ejection
  /// per node per cycle), before an ejected tail's slot recycles.  Used by
  /// tests (wormhole ordering invariants) and trace examples.
  using EjectHook = std::function<void(const Flit&, topology::Coord)>;
  void set_eject_hook(EjectHook hook) { eject_hook_ = std::move(hook); }

  /// Attaches a lifecycle-event sink (trace/); nullptr detaches.  The null
  /// pointer is the tracing-off fast path: each emission point costs one
  /// predictable branch.  A traced step runs the same phases as an
  /// untraced one and records each event straight to the sink, in node
  /// order within a phase.
  void set_trace_sink(trace::TraceSink* sink);
  [[nodiscard]] trace::TraceSink* trace_sink() const noexcept { return trace_; }

  // Instantaneous active-set gauges: the popcount of the route, switch
  // and inject node masks, O(nodes / 64) words per call — cheap enough for
  // --kernel-stats to sample every cycle even on large meshes — and the
  // exact full-register count.
  [[nodiscard]] std::uint64_t active_route_nodes() const noexcept {
    return marked_nodes(route_mask_);
  }
  [[nodiscard]] std::uint64_t active_switch_nodes() const noexcept {
    return marked_nodes(switch_mask_);
  }
  [[nodiscard]] std::uint64_t active_inject_nodes() const noexcept {
    return marked_nodes(inject_mask_);
  }
  [[nodiscard]] std::uint64_t full_link_registers() const noexcept {
    return full_links_;
  }

  /// Per-VC-index count of currently reserved output VCs across all links.
  [[nodiscard]] const std::vector<std::uint32_t>& link_vc_allocated()
      const noexcept {
    return link_vc_allocated_;
  }

  /// Debug cross-check against the offline deadlock verifier: `ranks` maps
  /// each channel id (router/channel_id.hpp) to its topological rank in the
  /// verified channel-dependency order, -1 for unchecked channels (see
  /// verify::VerifyReport::channel_order).  In debug builds every routing
  /// allocation then asserts that a header holding a ranked channel only
  /// acquires strictly higher-ranked ones; release builds ignore the order.
  void set_debug_channel_order(std::vector<std::int32_t> ranks);

  /// Runtime invariant audit; throws AuditError on the first violation.
  /// Level 1 checks the slot table (the free list is exactly the vacant
  /// slots, live-id consistency, created == retired + live).  Level 2
  /// additionally checks what is not derived — buffer depths, VC stages,
  /// output-VC reservations, owners and feeders, per-link credit
  /// conservation, the drained commit lists — and then compares the whole
  /// incrementally maintained occupancy state with recount_occupancy(),
  /// naming the first node and bit that differ.  Always compiled (tests
  /// drive it directly); builds configured with -DFTMESH_AUDIT=1|2 also
  /// run it automatically at the end of every step().
  void audit_invariants(int level) const;

 private:
  struct LinkReg {
    Flit flit;
    int vc = -1;
    bool full = false;
  };
  struct Supply {
    MessageSlot current = kInvalidMessage;
    std::uint32_t next_seq = 0;
  };
  /// One direct-mapped memoization slot: the candidate set the algorithm
  /// enumerated for (place, route_state_key).  The place is the header's
  /// route site (routing::route_site, < kSitePlaces) at a uniform node for
  /// a header not in ring mode, and kSitePlaces + node * nodes + dst
  /// elsewhere.  Sound by the key contract (routing_algorithm.hpp) in its
  /// site form and its (node, dst) form; anything else candidates() reads
  /// (fault map, rings, derived labels) only changes on reconfiguration,
  /// which invalidates the cache and the site table.
  struct RouteCacheEntry {
    std::uint64_t key = 0;
    std::uint64_t place = 0;
    bool valid = false;
    routing::CandidateList cands;
  };
  static constexpr std::size_t kRouteCacheSize = 1024;  // power of two
  static constexpr std::uint64_t kSitePlaces = 256;
  /// site_base_ value of a node whose candidates may read more than its
  /// route site (routing::route_site never produces it).
  static constexpr std::uint8_t kNotUniform = 0xFF;

  /// A deferred credit return: +1 credit on `node`'s output (port, vc),
  /// applied in the commit after the switch phase.  The paper's timing: a
  /// freed buffer slot becomes visible upstream on the next cycle, never in
  /// the cycle that freed it, whatever the node visit order.
  struct CreditReturn {
    topology::NodeId node;
    std::int16_t port;
    std::int16_t vc;
  };

  /// The occupancy state derived from the routers, link registers, source
  /// queues and injection supplies — everything the phases' active-set
  /// walks and the gauges read.  The kernel keeps it incrementally
  /// (set_*_ready, the inject-bit updates, note_link_full, the phase
  /// bodies' total updates); recount_occupancy() derives it from scratch.
  struct Occupancy {
    std::vector<std::uint64_t> route_ready;     // like route_ready_
    std::vector<std::uint64_t> switch_ready;    // like switch_ready_
    std::vector<std::uint64_t> credit_blocked;  // like credit_blocked_
    std::vector<std::uint64_t> route_mask;      // like route_mask_
    std::vector<std::uint64_t> switch_mask;     // like switch_mask_
    std::vector<std::uint64_t> inject_mask;     // like inject_mask_
    std::vector<std::uint64_t> link_mask;       // like link_mask_
    std::vector<std::uint32_t> link_vc_allocated;
    std::uint64_t buffered_flits = 0;
    std::uint64_t full_links = 0;
  };

  void phase_arrivals();
  void phase_injection();
  void phase_routing();
  void phase_switching();
  void phase_sampling();
  void commit_deferred();

  // Per-node bodies, called by the phases for each node with work, in
  // ascending node order.
  void arrive_link(std::size_t link_idx);
  void inject_node(topology::NodeId id);
  void route_node(topology::NodeId id);
  /// Routes the header fronting input VC `idx` (flat `port * vcs + vc`) of
  /// router `rt` at node `id`: one allocation attempt, tier by tier.
  void route_header(topology::NodeId id, topology::Coord c, Router& rt,
                    std::size_t idx, sim::CounterRng& sel);
  /// The crossbar at node `id`, in four steps: collect the sendable,
  /// credited input VCs from the ready words and the route table (no input
  /// VC is loaded), shuffle them, pick the winners (match_crossbar), and
  /// grant the winners only — the one step that touches input and output
  /// VCs, link registers and credits.
  void switch_node(topology::NodeId id);

  /// Candidate set for `h`'s header at node `id`, memoized in the route
  /// cache.  The level-2 audit build re-enumerates every hit.
  const routing::CandidateList& route_candidates(topology::NodeId id,
                                                 const HeaderState& h);
  /// Re-reads every node's site_base_ from the algorithm's uniform_at().
  void rebuild_sites();

  /// Growth of a whole-run count (or of each element of a per-VC /
  /// per-node sum) past the begin_measurement() snapshot; 0 before it.
  [[nodiscard]] std::uint64_t since_mark(
      std::uint64_t Counters::* field) const noexcept {
    return measuring_ ? counters_.*field - mark_.*field : 0;
  }
  [[nodiscard]] std::vector<std::uint64_t> since_mark(
      const std::vector<std::uint64_t>& now,
      const std::vector<std::uint64_t>& mark) const;

  /// Slot for a live id: a live-id-map lookup.  Debug-asserts liveness;
  /// release builds index unchecked.
  [[nodiscard]] MessageSlot slot_of(MessageId id) const {
    const auto it = live_ids_.find(id);
    assert(it != live_ids_.end() && "message accessor on a retired id");
    return it->second;
  }

  /// Freezes the slot's accounting into the retirement log (`aborted`:
  /// given up rather than delivered), clears the slot and pushes it onto
  /// the free list.  Called the cycle the tail ejects or the message is
  /// aborted — never with flits of the message still in the network.
  void retire_slot(MessageSlot slot, bool aborted);

  // Trace emission helpers; called only when trace_ != nullptr, and kept
  // out of line so they do not bloat the untraced phase bodies.  Each
  // records straight to the sink.
  [[gnu::noinline]] void emit(trace::EventKind kind, MessageId msg,
                              topology::Coord node, std::uint32_t a = 0,
                              std::uint32_t b = 0);
  /// Successful allocation: runs the algorithm's on_hop() and emits
  /// Unblock/VcAlloc plus any ring-transition / misroute events derived
  /// from the hop's effect on the routing state.
  void trace_alloc(topology::Coord c, MessageSlot slot,
                   topology::Direction dir, int vc);
  /// Failed allocation (every tier busy): emits Block on the transition.
  [[gnu::noinline]] void trace_block(MessageSlot slot, topology::Coord c);

  /// The one from-scratch definition of the occupancy state: every ready
  /// word, per-VC allocation gauge, node and link mask and total, derived
  /// from the router, route table, link, queue and supply state.  Reads each Active
  /// input VC's reserved output VC, so its route entry must be in range.
  [[nodiscard]] Occupancy recount_occupancy() const;
  /// Recount and install: replaces the occupancy state with
  /// recount_occupancy().  Used after rare bulk mutations (purge,
  /// reconfiguration) instead of per-item bookkeeping.
  void rebuild_active_sets();
  /// Set bits of one node mask (the active_*_nodes accessors).
  [[nodiscard]] static std::uint64_t marked_nodes(
      const std::vector<std::uint64_t>& mask) noexcept;
  /// True when none of `node`'s injection supplies is mid-message.
  [[nodiscard]] bool supplies_idle(topology::NodeId node) const;
  /// Sets `node`'s inject bit: its source queue just grew.
  void mark_inject(topology::NodeId node);

  // Occupancy bookkeeping.  The masks are exact; bit
  // `port * vcs + vc` of a node's ready words names one input VC:
  //   route_ready_  bit set <=> that VC has a header flit at the front and
  //                             stage != Active (a routable header)
  //   switch_ready_ bit set <=> that VC has stage == Active and a non-empty
  //                             buffer (a sendable flit)
  //   credit_blocked_ bit set <=> that VC has stage == Active, a route
  //                             port other than Local and its reserved
  //                             output VC has credits == 0 (the VC cannot
  //                             send, whether or not it holds a flit)
  // A node's bit in the route/switch node mask is set exactly while its
  // route/switch ready words are non-zero: the setters set it on the
  // empty -> non-empty transition and clear it on the way back.
  // set_*_ready asserts the VC bit actually changes state.
  // credit_blocked_ has no node mask: it is set by route allocation onto
  // a creditless output VC and by a non-tail grant that spends the last
  // credit, and cleared by the credit return that lifts the count from 0
  // (found through OutputVc::feeder).
  void set_route_ready(topology::NodeId node, std::size_t bit, bool ready) {
    set_ready(route_ready_, route_mask_, node, bit, ready);
  }
  void set_switch_ready(topology::NodeId node, std::size_t bit, bool ready) {
    set_ready(switch_ready_, switch_mask_, node, bit, ready);
  }
  /// Flips one node's ready bit in `words` and, on the node's empty <->
  /// non-empty transition, its bit in the node `mask`.
  void set_ready(std::vector<std::uint64_t>& words,
                 std::vector<std::uint64_t>& mask, topology::NodeId node,
                 std::size_t bit, bool ready);
  /// The node's words in a per-node input-VC ready mask.
  [[nodiscard]] std::uint64_t* ready_words(std::vector<std::uint64_t>& mask,
                                           topology::NodeId node) {
    return mask.data() + static_cast<std::size_t>(node) * ready_words_;
  }
  [[nodiscard]] const std::uint64_t* ready_words(
      const std::vector<std::uint64_t>& mask, topology::NodeId node) const {
    return mask.data() + static_cast<std::size_t>(node) * ready_words_;
  }
  /// Called exactly when a flit lands on an empty link register.
  void note_link_full(std::size_t link_idx);
  /// Applies the occupancy effect of pushing `f` into the input VC with
  /// flat index `bit` at `node`.
  void note_buffer_push(topology::NodeId node, std::size_t bit, const Flit& f,
                        bool was_empty);

  /// `node`'s row of the route table: one entry per input VC, by flat index.
  [[nodiscard]] InputRoute* routes(topology::NodeId node) {
    return input_routes_.data() + static_cast<std::size_t>(node) * nivc_;
  }
  [[nodiscard]] const InputRoute* routes(topology::NodeId node) const {
    return input_routes_.data() + static_cast<std::size_t>(node) * nivc_;
  }

  Router& router_mut(topology::Coord c) {
    return routers_[static_cast<std::size_t>(mesh_->id_of(c))];
  }
  LinkReg& link(topology::NodeId node, int dir) {
    return links_[static_cast<std::size_t>(node) * topology::kMeshDirections +
                  static_cast<std::size_t>(dir)];
  }
  Supply& supply(topology::NodeId node, int iv) {
    return supplies_[static_cast<std::size_t>(node) *
                         static_cast<std::size_t>(config_.injection_vcs) +
                     static_cast<std::size_t>(iv)];
  }

  const topology::Mesh* mesh_;
  const fault::FaultMap* faults_;
  const routing::RoutingAlgorithm* algorithm_;
  NetworkConfig config_;
  sim::Rng rng_;
  int vcs_ = 0;                   ///< virtual channels per port
  std::size_t nivc_ = 0;          ///< input VCs per node (kPortCount * vcs_)
  std::size_t ready_words_ = 0;   ///< words per node in the ready masks
  // Counter-based arbitration seeds, all derived (order-independently)
  // from the network seed: route-scan rotation offsets, selection-policy
  // draws, and the crossbar request shuffle.  Every draw in the cycle
  // kernel is a pure function of (seed, cycle, node [, draw index]), so no
  // node's randomness depends on which other nodes had work.
  std::uint64_t arb_seed_ = 0;
  std::uint64_t sel_seed_ = 0;
  std::uint64_t shuf_seed_ = 0;

  std::vector<Router> routers_;
  /// The route table: [node][flat input VC], the stage and reserved output
  /// of every input VC (see InputRoute).
  std::vector<InputRoute> input_routes_;
  /// Input port of each flat input-VC index (`bit / vcs_`, tabulated).
  std::vector<std::uint8_t> port_of_bit_;
  std::vector<LinkReg> links_;  // [node][direction]
  /// Mesh neighbour of each node per link direction, -1 off the edge;
  /// indexed like links_, so a register's downstream node is
  /// neighbour_id_[link index].
  std::vector<topology::NodeId> neighbour_id_;

  // Message storage: a slot table plus a parallel hot array (SoA split —
  // the route stage touches only headers_); live_ids_ maps stable ids to
  // their current slot.  A message is live exactly while it occupies a
  // slot; finished slots go through retire_slot() back to the free store.
  // Ids are never reused, so an id held across a retirement (a pending
  // retransmission) can never alias the slot's next occupant.
  std::vector<Message> messages_;      // cold accounting, indexed by slot
  std::vector<HeaderState> headers_;   // hot routing state, indexed by slot
  /// Vacant slots, LIFO: creation reuses the most recently retired slot
  /// and appends a fresh one only when the list is empty, so the table
  /// ends at the peak of concurrently live messages.
  std::vector<MessageSlot> free_slots_;
  std::vector<RetiredMessage> retired_;  // in retirement order
  std::unordered_map<MessageId, MessageSlot> live_ids_;
  MessageId next_message_id_ = 0;

  std::vector<std::deque<MessageSlot>> queues_;  // per-node source queues
  std::vector<Supply> supplies_;                 // [node][injection vc]

  std::uint64_t cycle_ = 0;
  std::uint64_t buffered_flits_ = 0;  // input buffers + link registers
  std::uint64_t flits_moved_this_cycle_ = 0;
  sim::Watchdog watchdog_;

  // Active-set state (see set_*_ready above): the per-node input-VC ready
  // words (ready_words_ words per node), and one bit per node in each node
  // mask.  A route/switch mask bit mirrors its node's ready words being
  // non-zero; an inject bit is set while the node's source queue is
  // non-empty or one of its injection supplies is mid-message (enqueueing
  // sets it, inject_node clears it when the last supply finishes on an
  // empty queue).  The phases walk set bits via count-trailing-zeros,
  // which visits nodes in ascending order for free; the gauges popcount
  // them.  link_mask_ has one bit per link register (indexed like links_),
  // set while the register is full.
  std::vector<std::uint64_t> route_ready_;
  std::vector<std::uint64_t> switch_ready_;
  std::vector<std::uint64_t> credit_blocked_;
  std::vector<std::uint64_t> route_mask_;
  std::vector<std::uint64_t> switch_mask_;
  std::vector<std::uint64_t> inject_mask_;
  std::vector<std::uint64_t> link_mask_;
  std::vector<std::uint32_t> link_vc_allocated_;  // per VC index, link ports
  std::uint64_t full_links_ = 0;  ///< exact count of full link registers

  /// Route-candidate memoization (kRouteCacheSize entries).
  std::vector<RouteCacheEntry> route_cache_;
#if defined(FTMESH_AUDIT) && FTMESH_AUDIT >= 2
  routing::CandidateList audit_cands_;  ///< fresh enumeration of a cache hit
#endif
  /// route_header's compaction target; grows to the widest list seen.
  std::vector<routing::CandidateVc> free_cands_;
  /// switch_node's request list, sized once to a node's input VCs.
  std::vector<CrossbarRequest> requests_;

  // Counts (see the accessors): whole-run, and the begin_measurement()
  // snapshot the window accessors subtract.
  Counters counters_;
  std::vector<std::uint64_t> vc_busy_counts_;  // per VC index
  std::vector<std::uint64_t> node_traffic_;    // per node
  std::uint64_t route_cache_invalidations_ = 0;
  /// Per node: routing::site_base when the algorithm's uniform_at() holds
  /// there, kNotUniform otherwise.  Read only by the route cache; rebuilt
  /// when the routing phase starts while sites_stale_ is set.
  std::vector<std::uint8_t> site_base_;
  bool sites_stale_ = true;
  bool measuring_ = false;
  std::uint64_t mark_cycle_ = 0;
  Counters mark_;
  std::vector<std::uint64_t> vc_busy_mark_;
  std::vector<std::uint64_t> node_traffic_mark_;

  EjectHook eject_hook_;
  std::vector<std::int32_t> debug_channel_order_;  // empty = check disabled

  trace::TraceSink* trace_ = nullptr;
  /// Per-slot "currently blocked" flag, maintained only while tracing so
  /// Block/Unblock fire on transitions rather than every starved cycle.
  /// Cleared on slot reuse.
  std::vector<char> trace_blocked_;

  // What the switch phase defers to commit_deferred() (kept across cycles
  // to avoid reallocation): credit returns, and the slots of ejected tails.
  std::vector<CreditReturn> credits_;
  std::vector<MessageSlot> retires_;
};

}  // namespace ftmesh::router
