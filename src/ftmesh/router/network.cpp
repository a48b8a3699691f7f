#include "ftmesh/router/network.hpp"

#include "ftmesh/router/channel_id.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>
#include <stdexcept>

namespace ftmesh::router {

using topology::Coord;
using topology::Direction;
using topology::kMeshDirections;
using topology::kPortCount;
using topology::NodeId;

namespace {

// One-bit occupancy helpers for the node and link masks and the per-node
// ready words (bit i of word i/64).
inline void set_bit(std::uint64_t* words, std::size_t i) {
  words[i >> 6] |= std::uint64_t{1} << (i & 63u);
}
inline bool test_bit(const std::uint64_t* words, std::size_t i) {
  return (words[i >> 6] >> (i & 63u)) & 1u;
}
inline void set_bit(std::vector<std::uint64_t>& mask, std::size_t i) {
  set_bit(mask.data(), i);
}
inline void clear_bit(std::vector<std::uint64_t>& mask, std::size_t i) {
  mask[i >> 6] &= ~(std::uint64_t{1} << (i & 63u));
}
inline bool test_bit(const std::vector<std::uint64_t>& mask, std::size_t i) {
  return test_bit(mask.data(), i);
}
inline std::size_t mask_words(std::size_t bits) { return (bits + 63u) / 64u; }
inline bool all_zero(const std::uint64_t* words, std::size_t n) {
  for (std::size_t w = 0; w < n; ++w) {
    if (words[w] != 0) return false;
  }
  return true;
}

/// Sets (`on`) or clears input-VC bit `bit` in one node's `n` ready words.
/// Returns true when the node's words went empty -> non-empty or back —
/// the transitions its node mask bit follows.
inline bool update_ready_bit(std::uint64_t* words, std::size_t n,
                             std::size_t bit, bool on) {
  std::uint64_t& word = words[bit >> 6];
  const std::uint64_t m = std::uint64_t{1} << (bit & 63u);
  assert(((word & m) != 0) != on && "ready bit already in that state");
  if (on) {
    const bool was_empty = word == 0 && all_zero(words, n);
    word |= m;
    return was_empty;
  }
  word &= ~m;
  return word == 0 && all_zero(words, n);
}

}  // namespace

Network::Network(const topology::Mesh& mesh, const fault::FaultMap& faults,
                 const routing::RoutingAlgorithm& algorithm,
                 NetworkConfig config, sim::Rng rng)
    : mesh_(&mesh),
      faults_(&faults),
      algorithm_(&algorithm),
      config_(config),
      rng_(rng),
      watchdog_(config.watchdog_patience) {
  if (config_.scan_mode != ScanMode::Active) {
    throw std::invalid_argument(
        "scan_mode full was removed: the kernel has one scan");
  }
  if (!config_.recycle_messages) {
    throw std::invalid_argument(
        "recycle_messages off was removed: message slots always recycle");
  }
  if (!config_.shard_alloc) {
    throw std::invalid_argument(
        "shard_alloc off was removed: message slots come from one pool");
  }
  if (!config_.route_cache) {
    throw std::invalid_argument(
        "route_cache off was removed: candidate sets are always memoized");
  }
  const auto n = static_cast<std::size_t>(mesh.node_count());
  const int vcs = algorithm.layout().total();
  if (config_.injection_vcs < 1 || config_.injection_vcs > vcs) {
    throw std::invalid_argument("injection_vcs out of range");
  }
  if (kPortCount * vcs > 0xffff) {
    throw std::invalid_argument("too many VCs for a 16-bit input-VC index");
  }
  if (config_.buffer_depth < 1 ||
      config_.buffer_depth > FlitRing::kMaxCapacity) {
    throw std::invalid_argument(
        "buffer_depth must be in [1, 65535]: input buffers index flits in "
        "16 bits");
  }
  routers_.reserve(n);
  for (NodeId id = 0; id < mesh.node_count(); ++id) {
    routers_.emplace_back(mesh.coord_of(id), vcs, config_.buffer_depth);
  }
  links_.resize(n * kMeshDirections);
  neighbour_id_.assign(n * kMeshDirections, -1);
  for (NodeId id = 0; id < mesh.node_count(); ++id) {
    const Coord c = mesh.coord_of(id);
    for (const Direction dir : topology::kAllMeshDirections) {
      if (const auto nb = mesh.neighbour(c, dir)) {
        neighbour_id_[static_cast<std::size_t>(id) * kMeshDirections +
                      static_cast<std::size_t>(port_index(dir))] =
            mesh.id_of(*nb);
      }
    }
  }
  queues_.resize(n);
  supplies_.resize(n * static_cast<std::size_t>(config_.injection_vcs));
  vc_busy_counts_.assign(static_cast<std::size_t>(vcs), 0);
  node_traffic_.assign(n, 0);
  vcs_ = vcs;
  nivc_ = static_cast<std::size_t>(kPortCount * vcs);
  input_routes_.assign(n * nivc_, InputRoute{});
  port_of_bit_.resize(nivc_);
  for (std::size_t bit = 0; bit < nivc_; ++bit) {
    port_of_bit_[bit] =
        static_cast<std::uint8_t>(bit / static_cast<std::size_t>(vcs));
  }
  ready_words_ = mask_words(nivc_);
  route_ready_.assign(n * ready_words_, 0);
  switch_ready_.assign(n * ready_words_, 0);
  credit_blocked_.assign(n * ready_words_, 0);
  route_mask_.assign(mask_words(n), 0);
  switch_mask_.assign(mask_words(n), 0);
  inject_mask_.assign(mask_words(n), 0);
  link_mask_.assign(mask_words(links_.size()), 0);
  link_vc_allocated_.assign(static_cast<std::size_t>(vcs), 0);
  route_cache_.resize(kRouteCacheSize);
  requests_.resize(nivc_);
  // The arbitration seeds come off derived streams (not the shared one),
  // so each is a pure function of the network seed.
  arb_seed_ = rng_.derive(0xa7b17ULL)();
  sel_seed_ = rng_.derive(0x5e1ec7ULL)();
  shuf_seed_ = rng_.derive(0x5bf1eULL)();
}

// ---- occupancy bookkeeping -----------------------------------------------

void Network::set_ready(std::vector<std::uint64_t>& words,
                        std::vector<std::uint64_t>& mask, NodeId node,
                        std::size_t bit, bool ready) {
  if (!update_ready_bit(ready_words(words, node), ready_words_, bit, ready)) {
    return;
  }
  const auto sid = static_cast<std::size_t>(node);
  if (ready) {
    set_bit(mask, sid);
  } else {
    clear_bit(mask, sid);
  }
}

void Network::mark_inject(NodeId node) {
  set_bit(inject_mask_, static_cast<std::size_t>(node));
}

bool Network::supplies_idle(NodeId node) const {
  const auto ivs = static_cast<std::size_t>(config_.injection_vcs);
  const std::span<const Supply> node_supplies(
      supplies_.data() + static_cast<std::size_t>(node) * ivs, ivs);
  return std::all_of(node_supplies.begin(), node_supplies.end(),
                     [](const Supply& s) { return s.current == kInvalidMessage; });
}

void Network::note_link_full(std::size_t link_idx) {
  ++full_links_;
  set_bit(link_mask_, link_idx);
}

void Network::note_buffer_push(NodeId node, std::size_t bit, const Flit& f,
                               bool was_empty) {
  if (!was_empty) return;  // the VC's front, hence its readiness, is unchanged
  const IvcStage stage = routes(node)[bit].stage;
  if (stage == IvcStage::Active) {
    // A worm owns the VC and its buffer was dry: the new flit is sendable.
    set_switch_ready(node, bit, true);
    return;
  }
  // Not Active and the buffer was empty: wormhole ordering guarantees the
  // arriving flit is the next worm's header (RouteWait implies non-empty).
  assert(stage == IvcStage::Idle);
  assert(is_head(f.type) && "body flit arrived into an idle empty VC");
  set_route_ready(node, bit, true);
  (void)f;
}

Network::Occupancy Network::recount_occupancy() const {
  const auto n = static_cast<std::size_t>(mesh_->node_count());
  Occupancy o;
  o.route_ready.assign(n * ready_words_, 0);
  o.switch_ready.assign(n * ready_words_, 0);
  o.credit_blocked.assign(n * ready_words_, 0);
  o.route_mask.assign(mask_words(n), 0);
  o.switch_mask.assign(mask_words(n), 0);
  o.inject_mask.assign(mask_words(n), 0);
  o.link_mask.assign(mask_words(links_.size()), 0);
  o.link_vc_allocated.assign(static_cast<std::size_t>(vcs_), 0);
  for (NodeId id = 0; id < mesh_->node_count(); ++id) {
    const auto sid = static_cast<std::size_t>(id);
    const Router& rt = routers_[sid];
    std::uint64_t* routable = o.route_ready.data() + sid * ready_words_;
    std::uint64_t* sendable = o.switch_ready.data() + sid * ready_words_;
    std::uint64_t* blocked = o.credit_blocked.data() + sid * ready_words_;
    const InputRoute* route = routes(id);
    for (std::size_t bit = 0; bit < nivc_; ++bit) {
      const InputVc& ivc = rt.input_at(bit);
      const InputRoute& r = route[bit];
      // <= 0, not == 0: a flit sent past a missed block leaves -1, which
      // the audit then reports as a drifted bit in the same cycle.
      if (r.active() && r.dir() != Direction::Local &&
          rt.output(r.port, r.vc).credits <= 0) {
        set_bit(blocked, bit);
      }
      o.buffered_flits += ivc.buf.size();
      if (ivc.buf.empty()) continue;
      if (r.active()) {
        set_bit(sendable, bit);
      } else if (is_head(ivc.buf.front().type)) {
        set_bit(routable, bit);
      }
    }
    for (int port = 0; port < kMeshDirections; ++port) {
      for (int vc = 0; vc < vcs_; ++vc) {
        if (rt.output(port, vc).allocated) {
          ++o.link_vc_allocated[static_cast<std::size_t>(vc)];
        }
      }
    }
    if (!all_zero(routable, ready_words_)) set_bit(o.route_mask, sid);
    if (!all_zero(sendable, ready_words_)) set_bit(o.switch_mask, sid);
    if (!queues_[sid].empty() || !supplies_idle(id)) {
      set_bit(o.inject_mask, sid);
    }
  }
  for (std::size_t idx = 0; idx < links_.size(); ++idx) {
    if (!links_[idx].full) continue;
    ++o.full_links;
    ++o.buffered_flits;
    set_bit(o.link_mask, idx);
  }
  return o;
}

void Network::rebuild_active_sets() {
  Occupancy o = recount_occupancy();
  // Rebuilds happen between cycles; nothing may be pending a commit.
  assert(credits_.empty() && retires_.empty());
  assert(o.buffered_flits == buffered_flits_ &&
         "incremental flit count drifted");
  route_ready_ = std::move(o.route_ready);
  switch_ready_ = std::move(o.switch_ready);
  credit_blocked_ = std::move(o.credit_blocked);
  route_mask_ = std::move(o.route_mask);
  switch_mask_ = std::move(o.switch_mask);
  inject_mask_ = std::move(o.inject_mask);
  link_mask_ = std::move(o.link_mask);
  link_vc_allocated_ = std::move(o.link_vc_allocated);
  buffered_flits_ = o.buffered_flits;
  full_links_ = o.full_links;
}

std::uint64_t Network::marked_nodes(
    const std::vector<std::uint64_t>& mask) noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t w : mask) {
    sum += static_cast<std::uint64_t>(std::popcount(w));
  }
  return sum;
}

void Network::on_fault_change() {
  for (auto& e : route_cache_) e.valid = false;
  ++route_cache_invalidations_;
  // Not rebuilt here: callers notify the algorithm after the network, and
  // uniform_at() may read labels (Boura-FT's unsafe set) that are stale
  // until then.
  sites_stale_ = true;
  rebuild_active_sets();
}

void Network::rebuild_sites() {
  site_base_.resize(static_cast<std::size_t>(mesh_->node_count()));
  for (NodeId id = 0; id < mesh_->node_count(); ++id) {
    const Coord c = mesh_->coord_of(id);
    site_base_[static_cast<std::size_t>(id)] =
        algorithm_->uniform_at(c) ? routing::site_base(*mesh_, c) : kNotUniform;
  }
  sites_stale_ = false;
}

// ---- trace emission ------------------------------------------------------

void Network::set_trace_sink(trace::TraceSink* sink) {
  trace_ = sink;
  trace_blocked_.assign(messages_.size(), 0);  // slot-indexed
}

namespace {

trace::Event make_event(std::uint64_t cycle, trace::EventKind kind,
                        MessageId msg, Coord node, std::uint32_t a,
                        std::uint32_t b) {
  trace::Event e;
  e.cycle = cycle;
  e.kind = kind;
  e.msg = msg;
  e.node = node;
  e.a = a;
  e.b = b;
  return e;
}

}  // namespace

void Network::emit(trace::EventKind kind, MessageId msg, Coord node,
                   std::uint32_t a, std::uint32_t b) {
  trace_->record(make_event(cycle_, kind, msg, node, a, b));
}

void Network::trace_alloc(Coord c, MessageSlot slot, Direction dir, int vc) {
  HeaderState& h = headers_[static_cast<std::size_t>(slot)];
  const MessageId id = messages_[static_cast<std::size_t>(slot)].id;
  const bool ring_was = h.rs.ring.active;
  const std::uint16_t mis_was = h.rs.misroutes;
  algorithm_->on_hop(c, dir, vc, h);
  if (trace_blocked_[static_cast<std::size_t>(slot)]) {
    trace_blocked_[static_cast<std::size_t>(slot)] = 0;
    emit(trace::EventKind::Unblock, id, c);
  }
  trace::Event e = make_event(cycle_, trace::EventKind::VcAlloc, id, c, 0, 0);
  e.dir = dir;
  e.vc = static_cast<std::int16_t>(vc);
  trace_->record(e);
  if (!ring_was && h.rs.ring.active) {
    emit(trace::EventKind::RingEnter, id, c,
         static_cast<std::uint32_t>(h.rs.ring.region), h.rs.ring.entry_distance);
  } else if (ring_was && !h.rs.ring.active) {
    emit(trace::EventKind::RingExit, id, c,
         static_cast<std::uint32_t>(h.rs.ring.region));
  }
  if (h.rs.misroutes > mis_was) {
    emit(trace::EventKind::Misroute, id, c, h.rs.misroutes);
  }
}

void Network::trace_block(MessageSlot slot, Coord c) {
  if (!trace_blocked_[static_cast<std::size_t>(slot)]) {
    trace_blocked_[static_cast<std::size_t>(slot)] = 1;
    emit(trace::EventKind::Block,
         messages_[static_cast<std::size_t>(slot)].id, c);
  }
}

// ---- message lifecycle ---------------------------------------------------

MessageId Network::create_message(Coord src, Coord dst, std::uint32_t length) {
  assert(faults_->active(src) && faults_->active(dst));
  assert(length >= 1);
  const MessageId id = next_message_id_++;
  // The most recently retired slot first (LIFO); a fresh one only when
  // none is vacant.  Either way its fields are default: retire_slot clears
  // a slot before listing it.
  MessageSlot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    assert(messages_[static_cast<std::size_t>(slot)].id == kInvalidMessage);
  } else {
    slot = static_cast<MessageSlot>(messages_.size());
    messages_.emplace_back();
    headers_.emplace_back();
  }
  if (trace_ != nullptr) {
    emit(trace::EventKind::Create, id, src, length);
    trace_blocked_.resize(messages_.size());
    trace_blocked_[static_cast<std::size_t>(slot)] = 0;
  }
  Message& m = messages_[static_cast<std::size_t>(slot)];
  m.id = id;
  m.src = src;
  m.dst = dst;
  m.length = length;
  m.created = cycle_;
  HeaderState& h = headers_[static_cast<std::size_t>(slot)];
  h.src = src;
  h.dst = dst;
  algorithm_->on_inject(h);
  live_ids_.emplace(id, slot);
  const NodeId src_id = mesh_->id_of(src);
  queues_[static_cast<std::size_t>(src_id)].push_back(slot);
  mark_inject(src_id);
  counters_.flits_generated += length;
  return id;
}

void Network::retire_slot(MessageSlot slot, bool aborted) {
  Message& m = messages_[static_cast<std::size_t>(slot)];
  const HeaderState& h = headers_[static_cast<std::size_t>(slot)];
  assert(m.id != kInvalidMessage);
  RetiredMessage r;
  r.id = m.id;
  r.created = m.created;
  r.injected = m.injected;
  r.delivered = m.delivered;
  r.length = m.length;
  r.hops = h.rs.hops;
  r.misroutes = h.rs.misroutes;
  r.retries = m.retries;
  r.aborted = aborted;
  r.ring_user = h.rs.ring.region >= 0;
  retired_.push_back(r);
  live_ids_.erase(m.id);
  m = Message{};  // id == kInvalidMessage marks the slot free
  headers_[static_cast<std::size_t>(slot)] = HeaderState{};
  free_slots_.push_back(slot);
}

void Network::abort_message(MessageId id) {
  retire_slot(slot_of(id), /*aborted=*/true);
}

const RetiredMessage* Network::retired_record(MessageId id) const {
  for (const RetiredMessage& r : retired_) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

bool Network::message_finished(MessageId id) const {
  assert(id < next_message_id_);
  return !live_ids_.contains(id);
}

void Network::begin_measurement() {
  measuring_ = true;
  mark_cycle_ = cycle_;
  mark_ = counters_;
  vc_busy_mark_ = vc_busy_counts_;
  node_traffic_mark_ = node_traffic_;
}

std::vector<std::uint64_t> Network::since_mark(
    const std::vector<std::uint64_t>& now,
    const std::vector<std::uint64_t>& mark) const {
  std::vector<std::uint64_t> out(now.size(), 0);
  if (measuring_) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = now[i] - mark[i];
  }
  return out;
}

void Network::step() {
  flits_moved_this_cycle_ = 0;
  phase_arrivals();
  phase_injection();
  phase_routing();
  phase_switching();
  commit_deferred();
  phase_sampling();
#if defined(FTMESH_AUDIT) && FTMESH_AUDIT >= 1
  audit_invariants(FTMESH_AUDIT);
#endif
  ++cycle_;
}

// ---- the deferred commit ------------------------------------------------

void Network::commit_deferred() {
  // Credit returns: every one lands here, after the whole switch phase, so
  // a freed buffer slot becomes visible upstream on the next cycle no
  // matter which node freed it or when in the phase.  A return that lifts
  // a reserved output VC from 0 credits unblocks the input VC feeding it.
  // The clear is branchless (an AND with an all-ones mask when nothing
  // unblocks): the 0 -> 1 outcome is close to a coin flip at the knee.
  for (const CreditReturn& cr : credits_) {
    OutputVc& ovc =
        routers_[static_cast<std::size_t>(cr.node)].output(cr.port, cr.vc);
    const std::uint64_t unblock =
        static_cast<std::uint64_t>((ovc.credits == 0) & ovc.allocated);
    ++ovc.credits;
    ready_words(credit_blocked_, cr.node)[ovc.feeder >> 6] &=
        ~(unblock << (ovc.feeder & 63u));
  }
  credits_.clear();
  // Retirements: stable-id order, so the retired_ log and the free-list
  // order feeding slot reuse do not depend on the node visit order.
  if (retires_.size() > 1) {
    std::sort(retires_.begin(), retires_.end(),
              [this](MessageSlot a, MessageSlot b) {
                return messages_[static_cast<std::size_t>(a)].id <
                       messages_[static_cast<std::size_t>(b)].id;
              });
  }
  for (const MessageSlot slot : retires_) {
    retire_slot(slot, /*aborted=*/false);
  }
  retires_.clear();
}

// ---- runtime invariant audit ---------------------------------------------

void Network::audit_invariants(int level) const {
  if (level <= 0) return;
  const auto fail = [this](const std::string& what) {
    throw AuditError("audit_invariants, cycle " + std::to_string(cycle_) +
                     ": " + what);
  };

  // ---- level 1: slot table, free list, live ids, message totals ---------
  if (messages_.size() != headers_.size()) {
    fail("slot-table arrays diverged (messages/headers)");
  }
  const auto occupied = static_cast<std::size_t>(
      std::count_if(messages_.begin(), messages_.end(), [](const Message& m) {
        return m.id != kInvalidMessage;
      }));
  // The free list must be a permutation of the vacant slots: no entry
  // twice (a double free), no occupied entry, no vacant slot missing.
  std::vector<char> freed(messages_.size(), 0);
  for (const MessageSlot slot : free_slots_) {
    if (slot >= messages_.size()) fail("free-list entry out of range");
    if (freed[slot] != 0) fail("slot appears on the free list twice");
    freed[slot] = 1;
    if (messages_[slot].id != kInvalidMessage) {
      fail("free-listed slot is still occupied");
    }
  }
  if (occupied + free_slots_.size() != messages_.size()) {
    fail("vacant slot missing from the free list");
  }
  if (occupied != live_ids_.size()) {
    fail("occupied slot count != live-id map size");
  }
  for (const auto& [id, slot] : live_ids_) {
    if (slot >= messages_.size() || messages_[slot].id != id) {
      fail("live-id map entry does not name its occupant");
    }
  }
  if (retired_.size() + occupied != next_message_id_) {
    fail("message conservation: retired + live != created");
  }

  if (level < 2) return;

  // ---- level 2: what is not derived, then the occupancy recount ----------
  if (!credits_.empty() || !retires_.empty()) {
    fail("deferred commit list not drained between cycles");
  }
  const auto local = topology::port_index(Direction::Local);
  const auto nbits = static_cast<std::size_t>(kPortCount * vcs_);
  for (NodeId id = 0; id < mesh_->node_count(); ++id) {
    const auto sid = static_cast<std::size_t>(id);
    const Router& rt = routers_[sid];
    const InputRoute* route = routes(id);
    for (int port = 0; port < kPortCount; ++port) {
      for (int vc = 0; vc < vcs_; ++vc) {
        const InputVc& ivc = rt.input(port, vc);
        const InputRoute& r = route[port * vcs_ + vc];
        if (port != local &&
            ivc.buf.size() > static_cast<std::size_t>(config_.buffer_depth)) {
          fail("input VC buffer deeper than the credit budget");
        }
        if (!ivc.buf.empty() && !r.active() &&
            !is_head(ivc.buf.front().type)) {
          fail("non-Active input VC fronted by a body flit");
        }
        if (!r.active()) continue;
        if (r.port >= kPortCount || r.vc >= vcs_) {
          fail("Active input VC with an out-of-range output port or VC");
        }
        if (r.dir() == Direction::Local) continue;
        const OutputVc& ovc = rt.output(r.port, r.vc);
        if (!ovc.allocated) {
          fail("Active input VC whose output VC is not reserved");
        }
        if (!ivc.buf.empty() && ivc.buf.front().msg != ovc.owner) {
          fail("flits of one worm on an output VC owned by another");
        }
      }
    }
    for (int d = 0; d < kMeshDirections; ++d) {
      const auto nb = mesh_->neighbour(mesh_->coord_of(id),
                                       static_cast<Direction>(d));
      for (int vc = 0; vc < vcs_; ++vc) {
        const OutputVc& ovc = rt.output(d, vc);
        if (ovc.allocated) {
          if (ovc.owner >= messages_.size() ||
              messages_[ovc.owner].id == kInvalidMessage) {
            fail("reserved output VC owned by a vacant message slot");
          }
          // The feeder names the input VC whose worm holds the reservation:
          // Active, pointed at exactly this output VC.
          if (ovc.feeder >= nbits) {
            fail("reserved output VC with an out-of-range feeder");
          }
          const InputRoute& feeder = route[ovc.feeder];
          if (!feeder.active() || feeder.port != d || feeder.vc != vc) {
            fail("output VC feeder does not name the input VC holding it");
          }
        }
        if (!nb) continue;
        // Credit conservation: credits + downstream occupancy + the flit in
        // flight on the link register reconstruct the buffer depth exactly.
        const auto& reg = links_[sid * kMeshDirections +
                                 static_cast<std::size_t>(d)];
        const int in_flight = (reg.full && reg.vc == vc) ? 1 : 0;
        const auto& down = routers_[static_cast<std::size_t>(mesh_->id_of(*nb))];
        const auto& dbuf =
            down.input(topology::port_index(
                           topology::opposite(static_cast<Direction>(d))),
                       vc)
                .buf;
        if (ovc.credits + static_cast<int>(dbuf.size()) + in_flight !=
            config_.buffer_depth) {
          fail("credit accounting drifted on a link output VC");
        }
      }
    }
  }

  // Everything the kernel maintains incrementally must equal the recount,
  // bit for bit (spare bits beyond the last input VC included); a failure
  // names the first node, and for a ready word the input VC, that differs.
  const Occupancy o = recount_occupancy();
  const auto drifted = [&](const std::string& what, std::uint64_t kept,
                           std::uint64_t recount) {
    if (kept == recount) return;
    fail(what + " drifted from the recount: kept " + std::to_string(kept) +
         ", recount " + std::to_string(recount));
  };
  const auto same_bits = [&](const std::string& what,
                             const std::vector<std::uint64_t>& kept,
                             const std::vector<std::uint64_t>& recount,
                             const auto& where) {
    for (std::size_t w = 0; w < kept.size(); ++w) {
      if (kept[w] == recount[w]) continue;
      const std::uint64_t diff = kept[w] ^ recount[w];
      const std::size_t b =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(diff));
      drifted(what + " bit of " + where(b), test_bit(kept, b),
              test_bit(recount, b));
    }
  };
  const auto node_name = [this](std::size_t node) {
    const Coord c = mesh_->coord_of(static_cast<NodeId>(node));
    return "node " + std::to_string(node) + " (" + std::to_string(c.x) + "," +
           std::to_string(c.y) + ")";
  };
  const auto input_vc = [&](std::size_t b) {
    const std::size_t v = b % (ready_words_ * 64);
    return node_name(b / (ready_words_ * 64)) + ", input port " +
           std::to_string(v / static_cast<std::size_t>(vcs_)) + " vc " +
           std::to_string(v % static_cast<std::size_t>(vcs_));
  };
  same_bits("route_ready", route_ready_, o.route_ready, input_vc);
  same_bits("switch_ready", switch_ready_, o.switch_ready, input_vc);
  same_bits("credit_blocked", credit_blocked_, o.credit_blocked, input_vc);
  for (std::size_t vc = 0; vc < link_vc_allocated_.size(); ++vc) {
    if (link_vc_allocated_[vc] == o.link_vc_allocated[vc]) continue;
    drifted("link_vc_allocated of vc " + std::to_string(vc),
            link_vc_allocated_[vc], o.link_vc_allocated[vc]);
  }
  const auto mask_node = [&](std::size_t b) {
    return b < routers_.size() ? node_name(b)
                               : "spare position " + std::to_string(b);
  };
  same_bits("route_mask", route_mask_, o.route_mask, mask_node);
  same_bits("switch_mask", switch_mask_, o.switch_mask, mask_node);
  same_bits("inject_mask", inject_mask_, o.inject_mask, mask_node);
  same_bits("link_mask", link_mask_, o.link_mask, [&](std::size_t b) {
    return "link register " + std::to_string(b % kMeshDirections) + " of " +
           mask_node(b / kMeshDirections);
  });
  drifted("buffered_flits", buffered_flits_, o.buffered_flits);
  drifted("full_links", full_links_, o.full_links);
}

// ---- phase 1: arrivals ---------------------------------------------------

void Network::arrive_link(std::size_t link_idx) {
  LinkReg& reg = links_[link_idx];
  assert(reg.full);
  const auto dir = static_cast<Direction>(link_idx % kMeshDirections);
  const NodeId down_id = neighbour_id_[link_idx];
  assert(down_id >= 0 && "flit sent off-mesh");
  Router& down = routers_[static_cast<std::size_t>(down_id)];
  const auto bit =
      static_cast<std::size_t>(port_index(opposite(dir)) * vcs_ + reg.vc);
  InputVc& ivc = down.input_at(bit);
  assert(static_cast<int>(ivc.buf.size()) < config_.buffer_depth &&
         "credit protocol violated");
  const bool was_empty = ivc.buf.empty();
  ivc.buf.push_back(reg.flit);
  note_buffer_push(down_id, bit, reg.flit, was_empty);
  reg.full = false;
  --full_links_;
}

void Network::phase_arrivals() {
  // Every full register drains each cycle, so the mask is consumed whole;
  // ordering is irrelevant (registers target disjoint input VCs).
  for (std::size_t w = 0; w < link_mask_.size(); ++w) {
    std::uint64_t word = link_mask_[w];
    link_mask_[w] = 0;
    for (; word != 0; word &= word - 1) {
      arrive_link((w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
}

// ---- phase 2: injection --------------------------------------------------

void Network::inject_node(NodeId id) {
  const Coord c = mesh_->coord_of(id);
  if (!faults_->active(c)) return;
  const auto local = port_index(Direction::Local);
  auto& queue = queues_[static_cast<std::size_t>(id)];
  for (int iv = 0; iv < config_.injection_vcs; ++iv) {
    Supply& sup = supply(id, iv);
    if (sup.current == kInvalidMessage) {
      if (queue.empty()) continue;
      sup.current = queue.front();
      queue.pop_front();
      sup.next_seq = 0;
    }
    const auto bit = static_cast<std::size_t>(local * vcs_ + iv);
    InputVc& ivc = router_mut(c).input_at(bit);
    if (static_cast<int>(ivc.buf.size()) >= config_.buffer_depth) continue;
    Message& m = messages_[sup.current];
    Flit flit;
    flit.msg = sup.current;
    flit.seq = sup.next_seq;
    if (m.length == 1) {
      flit.type = FlitType::HeadTail;
    } else if (sup.next_seq == 0) {
      flit.type = FlitType::Head;
    } else if (sup.next_seq + 1 == m.length) {
      flit.type = FlitType::Tail;
    } else {
      flit.type = FlitType::Body;
    }
    if (sup.next_seq == 0) {
      m.injected = cycle_;
      if (trace_ != nullptr) emit(trace::EventKind::Inject, m.id, c);
    }
    const bool was_empty = ivc.buf.empty();
    ivc.buf.push_back(flit);
    ++buffered_flits_;
    note_buffer_push(id, bit, flit, was_empty);
    ++sup.next_seq;
    if (sup.next_seq == m.length) {
      sup.current = kInvalidMessage;
      sup.next_seq = 0;
      // The node's last pending work just finished: nothing to inject.
      if (queue.empty() && supplies_idle(id)) {
        clear_bit(inject_mask_, static_cast<std::size_t>(id));
      }
    }
  }
}

// The phase walks below snapshot one mask word at a time: a node body may
// clear its own node's bit (work exhausted) but never sets a bit in the
// mask being walked, so the walk cannot skip or repeat work.

void Network::phase_injection() {
  sim::for_each_set_bit(inject_mask_.data(), inject_mask_.size(),
                        [&](std::size_t id) {
                          inject_node(static_cast<NodeId>(id));
                        });
}

// ---- phase 3: routing ----------------------------------------------------

void Network::set_debug_channel_order(std::vector<std::int32_t> ranks) {
  const auto expected = static_cast<std::size_t>(
      channel_table_size(mesh_->node_count(), algorithm_->layout().total()));
  if (!ranks.empty() && ranks.size() != expected) {
    throw std::invalid_argument("debug channel order: size mismatch");
  }
  debug_channel_order_ = std::move(ranks);
}

const routing::CandidateList& Network::route_candidates(NodeId id,
                                                        const HeaderState& m) {
  ++counters_.cache_lookups;
  const Coord c = mesh_->coord_of(id);
  const std::uint64_t key = algorithm_->route_state_key(m);
  // Away from faults and off the rings the candidate set depends only on
  // the route site and the key, so every node of a class shares an entry.
  const std::uint8_t base = site_base_[static_cast<std::size_t>(id)];
  const bool by_site = base != kNotUniform && !m.rs.ring.active;
  const auto nodes = static_cast<std::uint64_t>(mesh_->node_count());
  const std::uint64_t place =
      by_site ? std::uint64_t{base} | routing::direction_class(c, m.dst)
              : kSitePlaces + static_cast<std::uint64_t>(id) * nodes +
                    static_cast<std::uint64_t>(mesh_->id_of(m.dst));
  const std::size_t slot =
      static_cast<std::size_t>(sim::counter_hash(key, place, 0)) &
      (kRouteCacheSize - 1);
  RouteCacheEntry& e = route_cache_[slot];
  if (e.valid && e.place == place && e.key == key) {
    ++counters_.cache_hits;
#if defined(FTMESH_AUDIT) && FTMESH_AUDIT >= 2
    // The key contract, in its site form and its (node, dst) form, checked
    // on every hit against a fresh enumeration.
    audit_cands_.clear();
    algorithm_->enumerate(c, m, audit_cands_);
    if (!(audit_cands_ == e.cands)) {
      throw AuditError(
          "cycle " + std::to_string(cycle_) +
          ", route-class: cached candidates of " +
          (by_site ? "site " : "node-keyed place ") + std::to_string(place) +
          ", key " + std::to_string(key) + " differ from a fresh "
          "enumeration at node " + std::to_string(id) + " towards (" +
          std::to_string(m.dst.x) + "," + std::to_string(m.dst.y) + ")");
    }
#endif
    return e.cands;
  }
  e.valid = true;
  e.place = place;
  e.key = key;
  e.cands.clear();
  algorithm_->enumerate(c, m, e.cands);
  return e.cands;
}

void Network::route_node(NodeId id) {
  const std::uint64_t* ready = ready_words(route_ready_, id);
  const int nivc = kPortCount * vcs_;
  const Coord c = mesh_->coord_of(id);
  Router& rt = routers_[static_cast<std::size_t>(id)];
  // Random rotation keeps allocation fair without a full shuffle.  The
  // offset — like every other draw below — is a counter-based hash, a pure
  // function of (seed, cycle, node): skipping idle routers cannot shift
  // anyone's randomness.
  const int offset = static_cast<int>(
      sim::counter_below(arb_seed_, cycle_, static_cast<std::uint64_t>(id),
                         static_cast<std::uint64_t>(nivc)));
  sim::CounterRng sel(
      sim::counter_hash(sel_seed_, cycle_, static_cast<std::uint64_t>(id)));
  // The rotated set-bit walk visits the routable VCs in (k + offset) %
  // nivc order.  Routing a header clears only its own bit, which the walk
  // allows.
  sim::for_each_set_bit_from(
      ready, static_cast<std::size_t>(nivc), static_cast<std::size_t>(offset),
      [&](std::size_t idx) { route_header(id, c, rt, idx, sel); });
}

void Network::route_header(NodeId id, Coord c, Router& rt, std::size_t idx,
                           sim::CounterRng& sel) {
  const InputVc& ivc = rt.input_at(idx);
  InputRoute& route = routes(id)[idx];
  assert(!ivc.buf.empty() && is_head(ivc.buf.front().type) && !route.active());
  const Flit& front = ivc.buf.front();
  route.stage = IvcStage::RouteWait;
  // SoA: the route stage reads/writes only the hot header array; the
  // cold accounting record is untouched until ejection.
  HeaderState& m = headers_[front.msg];
  if (c == m.dst) {
    route = {IvcStage::Active,
             static_cast<std::uint8_t>(port_index(Direction::Local)),
             static_cast<std::uint16_t>(idx % static_cast<std::size_t>(vcs_))};
    set_route_ready(id, idx, false);
    set_switch_ready(id, idx, true);
    return;
  }
  const routing::CandidateList& cand = route_candidates(id, m);
  // One in-order compaction scores every list, whatever its width: each
  // candidate is written to the next free slot of the scratch, and the
  // slot advances only when its output VC is unallocated — no branch on
  // the occupancy.  Tier boundaries become offsets into the compacted
  // array, so the first non-empty tier is the span the selection RNG sees,
  // in candidate order.  Recomputed per header: allocations earlier in
  // this node's scan change the occupancy.
  const std::size_t ncand = cand.size();
  if (free_cands_.size() < ncand) free_cands_.resize(ncand);
  routing::CandidateVc* const out = free_cands_.data();
  std::size_t nfree = 0;
  std::size_t pick_begin = 0;
  std::size_t pick_end = 0;
  for (std::size_t tier = 0; tier < cand.tier_count(); ++tier) {
    const auto [begin, end] = cand.tier_range(tier);
    const std::size_t tier_begin = nfree;
    for (std::size_t i = begin; i < end; ++i) {
      const Direction d = cand.dir(i);
      const int vc = cand.vc(i);
      assert(d != Direction::Local && mesh_->neighbour(c, d).has_value());
      out[nfree] = {d, vc};
      nfree += static_cast<std::size_t>(
          !rt.output(port_index(d), vc).allocated);
    }
    if (pick_begin == pick_end) {
      pick_begin = tier_begin;
      pick_end = nfree;
    }
  }
  ++counters_.route_decisions;
  counters_.candidates_offered += ncand;
  counters_.candidates_free += nfree;
  if (pick_begin == pick_end) {
    if (trace_ != nullptr) trace_block(front.msg, c);
    return;
  }
  const std::span<const routing::CandidateVc> choices(out + pick_begin,
                                                      pick_end - pick_begin);
  const routing::CandidateVc chosen = choices[routing::select_candidate(
      config_.selection, choices,
      [&](std::size_t i) {
        return rt.output(port_index(choices[i].dir), choices[i].vc).credits;
      },
      sel)];
#ifndef NDEBUG
  const int port = static_cast<int>(idx) / vcs_;
  const int vc = static_cast<int>(idx) % vcs_;
  if (!debug_channel_order_.empty() && port != port_index(Direction::Local)) {
    // The held channel is the upstream router's output feeding this
    // input port (see channel_id.hpp).  On ranked -> ranked moves the
    // verified dependency order must strictly increase.
    const auto in_dir = static_cast<Direction>(port);
    const NodeId up = mesh_->id_of(c.step(in_dir));
    const auto held = static_cast<std::size_t>(
        channel_id(up, opposite(in_dir), vc, vcs_));
    const auto next = static_cast<std::size_t>(
        channel_id(id, chosen.dir, chosen.vc, vcs_));
    assert(debug_channel_order_[held] < 0 ||
           debug_channel_order_[next] < 0 ||
           debug_channel_order_[held] < debug_channel_order_[next]);
  }
#endif
  // Output-VC ownership is the *slot*: the purge/victim machinery
  // indexes its flag arrays by slot, and the owner is always live
  // while the reservation is held.  A reservation taken while the
  // downstream buffer is still full starts out credit-blocked.
  OutputVc& ovc = rt.output(port_index(chosen.dir), chosen.vc);
  ovc.allocate(front.msg, static_cast<std::uint16_t>(idx));
  if (ovc.credits == 0) set_bit(ready_words(credit_blocked_, id), idx);
  ++link_vc_allocated_[static_cast<std::size_t>(chosen.vc)];
  route = {IvcStage::Active, static_cast<std::uint8_t>(port_index(chosen.dir)),
           static_cast<std::uint16_t>(chosen.vc)};
  set_route_ready(id, idx, false);
  set_switch_ready(id, idx, true);
  if (trace_ != nullptr) {
    trace_alloc(c, front.msg, chosen.dir, chosen.vc);
  } else {
    algorithm_->on_hop(c, chosen.dir, chosen.vc, m);
  }
}

void Network::phase_routing() {
  if (sites_stale_) rebuild_sites();
  sim::for_each_set_bit(route_mask_.data(), route_mask_.size(),
                        [&](std::size_t id) {
                          route_node(static_cast<NodeId>(id));
                        });
}

// ---- phase 4: switching --------------------------------------------------

void Network::switch_node(NodeId id) {
  const std::uint64_t* ready = ready_words(switch_ready_, id);
  const std::uint64_t* blocked = ready_words(credit_blocked_, id);
  const auto local = port_index(Direction::Local);
  Router& rt = routers_[static_cast<std::size_t>(id)];
  InputRoute* const route = routes(id);

  // Collect requests in the fixed port-major order (the shuffle below
  // depends on the initial order).  A request is a sendable flit whose
  // output VC has a credit (or is the ejection port).  Ascending bit order
  // of the ready mask *is* port-major order, so the walk over
  // `ready & ~blocked` never touches a credit-starved worm; each request's
  // input port comes from a table and its output port from the route
  // table, so collecting loads no input VC either.
  CrossbarRequest* const reqs = requests_.data();
  std::size_t n = 0;
  for (std::size_t w = 0; w < ready_words_; ++w) {
    for (std::uint64_t word = ready[w] & ~blocked[w]; word != 0;
         word &= word - 1) {
      const std::size_t bit =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      reqs[n++] = {port_of_bit_[bit], route[bit].port,
                   static_cast<std::uint16_t>(bit)};
    }
  }
  if (n == 0) return;

  // Random conflict resolution (paper): shuffle, then greedy matching
  // under the one-flit-per-input-port / per-output-port crossbar limits.
  // The shuffle draws from a (seed, cycle, node) counter stream — node-
  // local randomness, like the routing draws above.  A single request
  // draws nothing, so its stream is not even seeded.
  if (n > 1) {
    sim::CounterRng shuf(
        sim::counter_hash(shuf_seed_, cycle_, static_cast<std::uint64_t>(id)));
    for (std::size_t i = n; i > 1; --i) {
      const auto j = shuf.next_below(i);
      std::swap(reqs[i - 1], reqs[j]);
    }
  }
  // The greedy match reads only each request's (input port, output port),
  // which no grant changes, so the winners are picked first — in shuffled
  // order, exactly the requests a grant-as-you-go loop would have granted —
  // and only they are granted.
  const std::size_t won = match_crossbar({reqs, n});
  for (std::size_t k = 0; k < won; ++k) {
    const CrossbarRequest req = reqs[k];
    const std::size_t bit = req.bit;
    InputVc& ivc = rt.input_at(bit);
    InputRoute& r = route[bit];
    const Flit flit = ivc.buf.front();
    ivc.buf.pop_front();
    --buffered_flits_;
    ++flits_moved_this_cycle_;
    if (config_.collect_traffic_map) {
      ++node_traffic_[static_cast<std::size_t>(id)];
    }
    const bool tail = is_tail(flit.type);

    if (req.out == local) {
      if (eject_hook_) eject_hook_(flit, mesh_->coord_of(id));
      if (tail) {
        Message& m = messages_[flit.msg];
        m.delivered = cycle_;
        ++counters_.messages_delivered;
        counters_.flits_delivered += m.length;
        counters_.latency_sum += cycle_ - m.created;
        if (trace_ != nullptr) {
          const HeaderState& h = headers_[flit.msg];
          emit(trace::EventKind::Eject, m.id, mesh_->coord_of(id),
               static_cast<std::uint32_t>(h.rs.hops),
               static_cast<std::uint32_t>(h.rs.misroutes));
        }
        // The tail is out: the slot recycles in the commit this same
        // cycle — storage stays bounded at O(in-flight).
        retires_.push_back(flit.msg);
      }
    } else {
      OutputVc& ovc = rt.output(req.out, r.vc);
      --ovc.credits;
      LinkReg& reg = link(id, req.out);
      assert(!reg.full && "one flit per link per cycle");
      reg.flit = flit;
      reg.vc = r.vc;
      reg.full = true;
      ++buffered_flits_;
      note_link_full(static_cast<std::size_t>(id) * kMeshDirections +
                     static_cast<std::size_t>(req.out));
      if (tail) {
        ovc.release();
        --link_vc_allocated_[r.vc];
      } else if (ovc.credits == 0) {
        // The worm spent the last downstream slot: it stays blocked until
        // the commit that returns a credit to this output VC.
        set_bit(ready_words(credit_blocked_, id), bit);
      }
    }

    // Credit return to the upstream router for the vacated buffer slot,
    // deferred to the commit (next-cycle visibility).
    if (req.in != local) {
      credits_.push_back(
          {neighbour_id_[static_cast<std::size_t>(id) * kMeshDirections +
                         req.in],
           static_cast<std::int16_t>(
               port_index(opposite(static_cast<Direction>(req.in)))),
           static_cast<std::int16_t>(static_cast<int>(bit) - req.in * vcs_)});
      assert(credits_.back().node >= 0);
    }

    if (tail) {
      r = InputRoute{};
      set_switch_ready(id, bit, false);
      if (!ivc.buf.empty()) {
        // The flit behind a tail is always the next worm's header.
        assert(is_head(ivc.buf.front().type));
        set_route_ready(id, bit, true);
      }
    } else if (ivc.buf.empty()) {
      // The worm still owns the VC but has nothing to send.
      set_switch_ready(id, bit, false);
    }
  }
}

void Network::phase_switching() {
  sim::for_each_set_bit(switch_mask_.data(), switch_mask_.size(),
                        [&](std::size_t id) {
                          switch_node(static_cast<NodeId>(id));
                        });
}

// ---- phase 5: sampling ---------------------------------------------------

void Network::phase_sampling() {
  watchdog_.observe(flits_moved_this_cycle_, buffered_flits_);
  if (config_.collect_vc_usage) {
    for (std::size_t v = 0; v < vc_busy_counts_.size(); ++v) {
      vc_busy_counts_[v] += link_vc_allocated_[v];
    }
    ++counters_.vc_usage_samples;
  }
  if (config_.collect_kernel_stats) {
    // Mask popcounts: O(nodes / 64) words, cheap enough to sample every
    // cycle even on large meshes.
    counters_.kernel_route_nodes_sum += active_route_nodes();
    counters_.kernel_switch_nodes_sum += active_switch_nodes();
    counters_.kernel_inject_nodes_sum += active_inject_nodes();
    counters_.kernel_link_regs_sum += full_links_;
    ++counters_.kernel_samples;
  }
}

// ---- dynamic-fault recovery ----------------------------------------------

Network::FaultVictims Network::collect_fault_victims() const {
  // Per-slot victim flags; `flushed` counts the resource holders as they
  // are first flagged.
  std::vector<char> hit(messages_.size(), 0);
  FaultVictims out;
  const auto flag = [&](MessageSlot s) {
    if (hit[s] != 0) return;
    hit[s] = 1;
    ++out.flushed;
  };
  const int vcs = algorithm_->layout().total();
  for (NodeId id = 0; id < mesh_->node_count(); ++id) {
    const Coord c = mesh_->coord_of(id);
    const Router& rt = routers_[static_cast<std::size_t>(id)];
    const bool dead = faults_->blocked(c);
    if (dead) {
      // Flits stranded inside the dead router, reservations at it (worms
      // passing through hold its output VCs), and messages mid-injection
      // from it (their remaining flits can never be supplied).
      for (int port = 0; port < kPortCount; ++port) {
        for (int vc = 0; vc < vcs; ++vc) {
          for (const Flit& f : rt.input(port, vc).buf) flag(f.msg);
          const OutputVc& ovc = rt.output(port, vc);
          if (ovc.allocated) flag(ovc.owner);
        }
      }
      for (int iv = 0; iv < config_.injection_vcs; ++iv) {
        const Supply& s =
            supplies_[static_cast<std::size_t>(id) *
                          static_cast<std::size_t>(config_.injection_vcs) +
                      static_cast<std::size_t>(iv)];
        if (s.current != kInvalidMessage) flag(s.current);
      }
    }
    for (int d = 0; d < kMeshDirections; ++d) {
      const auto dir = static_cast<Direction>(d);
      const auto nb = mesh_->neighbour(c, dir);
      if (!nb) continue;
      const bool nb_dead = faults_->blocked(*nb);
      // Partial-router degradation: a dead channel between two healthy
      // routers strands only the traffic crossing it, never the routers'
      // other traffic.
      const bool link_dead = !faults_->link_alive(c, dir);
      if (!dead && !nb_dead && !link_dead) continue;
      // Flits in flight on a link incident to a dead node or dead itself.
      const LinkReg& reg =
          links_[static_cast<std::size_t>(id) * kMeshDirections +
                 static_cast<std::size_t>(d)];
      if (reg.full) flag(reg.flit.msg);
      if (!dead && (nb_dead || link_dead)) {
        // A healthy router's reservation pointing into the dead neighbour
        // or over the dead channel: the owner's path crosses the fault
        // even if no flit is there yet.
        for (int vc = 0; vc < vcs; ++vc) {
          const OutputVc& ovc = rt.output(port_index(dir), vc);
          if (ovc.allocated) flag(ovc.owner);
        }
      }
    }
  }
  // Plus every live message whose endpoint died: it may hold nothing
  // (still queued, or waiting out a retransmit backoff) but can never
  // complete.
  for (MessageSlot s = 0; s < messages_.size(); ++s) {
    const Message& m = messages_[s];
    if (m.id == kInvalidMessage) continue;
    if (hit[s] != 0 || !faults_->active(m.src) || !faults_->active(m.dst)) {
      out.slots.push_back(s);
    }
  }
  // Order by stable id, not slot: trace Purge emission and retransmit
  // scheduling iterate this list, and their byte-exact order must not
  // depend on which slots the victims happen to occupy.
  std::sort(out.slots.begin(), out.slots.end(),
            [this](MessageSlot a, MessageSlot b) {
              return messages_[static_cast<std::size_t>(a)].id <
                     messages_[static_cast<std::size_t>(b)].id;
            });
  return out;
}

void Network::purge_messages(const std::vector<MessageSlot>& slots) {
  if (slots.empty()) return;
  std::vector<char> purge(messages_.size(), 0);
  for (const MessageSlot s : slots) {
    purge[static_cast<std::size_t>(s)] = 1;
  }
  if (trace_ != nullptr) {
    for (const MessageSlot s : slots) {
      const Message& m = messages_[static_cast<std::size_t>(s)];
      emit(trace::EventKind::Purge, m.id, m.src);
      trace_blocked_[static_cast<std::size_t>(s)] = 0;
    }
  }
  const int vcs = algorithm_->layout().total();
  const auto local = port_index(Direction::Local);

  // 1. Link registers.  The sender consumed a credit when it launched the
  //    flit; the downstream slot will now never be filled, so the credit
  //    goes straight back to the sender's output VC.
  for (NodeId id = 0; id < mesh_->node_count(); ++id) {
    for (int d = 0; d < kMeshDirections; ++d) {
      LinkReg& reg = link(id, d);
      if (!reg.full || !purge[static_cast<std::size_t>(reg.flit.msg)]) continue;
      routers_[static_cast<std::size_t>(id)].output(d, reg.vc).credits++;
      reg.full = false;
      --buffered_flits_;
    }
  }

  // 2. Input buffers.  Each removed flit frees a slot, so its credit is
  //    restored on the upstream router's matching output VC (a dead
  //    upstream router's state is simply never read again).  The VC is
  //    released when it empties or when the purged message was at its
  //    front; a surviving header exposed at the front re-enters routing
  //    from the Idle stage next cycle.
  for (NodeId id = 0; id < mesh_->node_count(); ++id) {
    const Coord c = mesh_->coord_of(id);
    Router& rt = routers_[static_cast<std::size_t>(id)];
    for (int port = 0; port < kPortCount; ++port) {
      for (int vc = 0; vc < vcs; ++vc) {
        InputVc& ivc = rt.input(port, vc);
        InputRoute& route = routes(id)[port * vcs + vc];
        if (ivc.buf.empty()) {
          // A worm holds its input-VC claim even while the buffer is
          // momentarily empty (flits streamed ahead of the tail).  The
          // claimant is identified through its reserved output VC; a stale
          // claim must be released here or the next header arriving on this
          // VC would be forwarded as body flits of the purged worm.
          if (route.active()) {
            const OutputVc& ovc = rt.output(route.port, route.vc);
            if (ovc.allocated && purge[static_cast<std::size_t>(ovc.owner)]) {
              route = InputRoute{};
            }
          }
          continue;
        }
        const bool front_purged =
            purge[static_cast<std::size_t>(ivc.buf.front().msg)] != 0;
        const std::size_t removed = ivc.buf.remove_if([&](const Flit& f) {
          return purge[static_cast<std::size_t>(f.msg)] != 0;
        });
        if (removed == 0) continue;
        buffered_flits_ -= removed;
        if (port != local) {
          const auto updir = static_cast<Direction>(port);
          const auto up = mesh_->neighbour(c, updir);
          assert(up && "flit buffered on a port with no upstream link");
          router_mut(*up).output(port_index(opposite(updir)), vc).credits +=
              static_cast<int>(removed);
        }
        if (ivc.buf.empty() || front_purged) route = InputRoute{};
      }
    }
  }

  // 3. Channel reservations held by purged messages.
  for (auto& rt : routers_) {
    for (int port = 0; port < kPortCount; ++port) {
      for (int vc = 0; vc < vcs; ++vc) {
        OutputVc& ovc = rt.output(port, vc);
        if (ovc.allocated && purge[static_cast<std::size_t>(ovc.owner)]) {
          ovc.release();
        }
      }
    }
  }

  // 4. Injection supplies mid-message.
  for (auto& s : supplies_) {
    if (s.current != kInvalidMessage &&
        purge[static_cast<std::size_t>(s.current)]) {
      s.current = kInvalidMessage;
      s.next_seq = 0;
    }
  }

  // 5. Source queues (messages not yet injected).
  for (auto& q : queues_) {
    q.erase(std::remove_if(
                q.begin(), q.end(),
                [&](MessageSlot s) { return purge[static_cast<std::size_t>(s)] != 0; }),
            q.end());
  }

  // The purge touched occupancy all over the network; recompute the active
  // sets and derived totals wholesale rather than tracking every removal.
  rebuild_active_sets();
}

void Network::requeue_message(MessageId id) {
  const MessageSlot slot = slot_of(id);
  const Message& m = messages_[static_cast<std::size_t>(slot)];
  assert(faults_->active(m.src) && faults_->active(m.dst));
  HeaderState& h = headers_[static_cast<std::size_t>(slot)];
  h.rs = RouteState{};
  algorithm_->on_inject(h);
  const NodeId src_id = mesh_->id_of(m.src);
  queues_[static_cast<std::size_t>(src_id)].push_back(slot);
  mark_inject(src_id);
  if (trace_ != nullptr) {
    emit(trace::EventKind::Retransmit, m.id, m.src,
         static_cast<std::uint32_t>(m.retries));
  }
}

void Network::revalidate_ring_state(const fault::FRingSet& rings) {
  const int vcs = algorithm_->layout().total();
  const auto check = [&](MessageSlot slot, Coord pos) {
    auto& r = headers_[static_cast<std::size_t>(slot)].rs.ring;
    if (!r.active) return;
    if (r.region >= 0 && r.region < static_cast<int>(rings.ring_count()) &&
        rings.ring(r.region).contains(pos)) {
      return;  // recorded region still names a ring through the head
    }
    // The rebuild renumbered or reshaped the ring this head was traversing.
    // If the head still sits on some ring of the new set, remap the region
    // id and keep the orientation/reversal/exit bookkeeping: the planner
    // resumes on the new ring (reversing at a chain end if needed).
    // Clearing here instead would let the head wander off on escape
    // channels and later re-enter a ring at a node whose ring channel its
    // own strung-out body still holds — a permanent self-wait the VC
    // allocator can never resolve.
    for (int i = 0; i < static_cast<int>(rings.ring_count()); ++i) {
      if (rings.ring(i).contains(pos)) {
        r.region = i;
        return;
      }
    }
    r = RingState{};  // genuinely off every ring: degrade to a fresh entry
  };
  for (NodeId id = 0; id < mesh_->node_count(); ++id) {
    const Coord c = mesh_->coord_of(id);
    const Router& rt = routers_[static_cast<std::size_t>(id)];
    for (int port = 0; port < kPortCount; ++port) {
      for (int vc = 0; vc < vcs; ++vc) {
        for (const Flit& f : rt.input(port, vc).buf) {
          if (is_head(f.type)) check(f.msg, c);
        }
      }
    }
    for (int d = 0; d < kMeshDirections; ++d) {
      const LinkReg& reg =
          links_[static_cast<std::size_t>(id) * kMeshDirections +
                 static_cast<std::size_t>(d)];
      if (!reg.full || !is_head(reg.flit.type)) continue;
      const auto nb = mesh_->neighbour(c, static_cast<Direction>(d));
      if (nb) check(reg.flit.msg, *nb);
    }
  }
}

}  // namespace ftmesh::router
