#include "ftmesh/verify/state_space.hpp"

#include <unordered_map>

#include "ftmesh/sim/rng.hpp"

namespace ftmesh::verify {

using topology::Coord;

namespace {

/// BFS state identity: header node plus the algorithm's routing-state key.
struct StateKey {
  topology::NodeId node = 0;
  std::uint64_t key = 0;

  friend bool operator==(const StateKey&, const StateKey&) = default;
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& s) const noexcept {
    // splitmix64 over the packed pair; the node id fits the low bits.
    std::uint64_t x = s.key * 0x9E3779B97F4A7C15ull +
                      static_cast<std::uint64_t>(static_cast<std::uint32_t>(s.node));
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

}  // namespace

StateSpace walk_destination(const routing::RoutingAlgorithm& algo,
                            const topology::Mesh& mesh,
                            const fault::FaultMap& faults, Coord dst) {
  const auto& layout = algo.layout();
  const bool escape_required =
      algo.deadlock_argument() == routing::DeadlockArgument::EscapeCdg;
  StateSpace ss;
  ss.dst = dst;
  std::unordered_map<StateKey, std::int32_t, StateKeyHash> index;
  routing::CandidateList list;

  // Interns the state (at, key(msg)); on first sight enumerates and checks
  // its candidates.
  const auto intern = [&](Coord at, const router::HeaderState& msg) {
    const StateKey key{mesh.id_of(at), algo.route_state_key(msg)};
    const auto [it, fresh] =
        index.try_emplace(key, static_cast<std::int32_t>(ss.size()));
    if (!fresh) return it->second;
    ss.at.push_back(at);
    ss.msg.push_back(msg);
    ss.key.push_back(key.key);

    list.clear();
    algo.enumerate(at, msg, list);
    bool any_escape = false;
    bool any_invalid = false;
    auto& cands = ss.cands.emplace_back();
    cands.reserve(list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      WalkCandidate w{list.dir(i), CandidateFault::None,
                      static_cast<std::int16_t>(list.vc(i)), -1};
      if (w.vc >= layout.total()) {
        w.fault = CandidateFault::VcOutsideLayout;
      } else if (w.dir == topology::Direction::Local) {
        w.fault = CandidateFault::LocalPort;
      } else if (mesh.contains(at.step(w.dir))) {
        any_escape = any_escape || layout.at(w.vc).role != routing::VcRole::AdaptiveI;
      } else {
        w.fault = CandidateFault::OffMesh;
      }
      any_invalid = any_invalid || w.fault != CandidateFault::None;
      cands.push_back(w);
    }
    ss.fault.push_back(list.empty()                     ? StateFault::NoCandidate
                       : any_invalid                    ? StateFault::InvalidCandidate
                       : escape_required && !any_escape ? StateFault::NoEscape
                                                        : StateFault::None);
    return it->second;
  };

  for (const Coord src : faults.active_nodes()) {
    if (src == dst) continue;
    router::HeaderState msg;
    msg.src = src;
    msg.dst = dst;
    algo.on_inject(msg);
    intern(src, msg);
  }
  // States are numbered in discovery order, so walking the ids in order is
  // the BFS queue.
  for (std::size_t s = 0; s < ss.size(); ++s) {
    for (std::size_t i = 0; i < ss.cands[s].size(); ++i) {
      const WalkCandidate w = ss.cands[s][i];  // copy: intern() may grow cands
      const Coord to = ss.at[s].step(w.dir);
      if (w.fault != CandidateFault::None || to == dst) continue;
      router::HeaderState msg;
      msg.src = dst;  // src is never read after injection
      msg.dst = dst;
      msg.rs = ss.msg[s].rs;
      algo.on_hop(ss.at[s], w.dir, w.vc, msg);
      const std::int32_t next = intern(to, msg);
      ss.cands[s][i].next = next;
    }
  }
  return ss;
}

}  // namespace ftmesh::verify
