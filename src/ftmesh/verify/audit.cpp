#include "ftmesh/verify/audit.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>

#include "ftmesh/verify/scc.hpp"
#include "ftmesh/verify/state_space.hpp"

namespace ftmesh::verify {

using topology::Coord;

const char* audit_check_name(AuditCheck check) noexcept {
  switch (check) {
    case AuditCheck::Coverage: return "coverage";
    case AuditCheck::VcDiscipline: return "vc-discipline";
    case AuditCheck::RingConformance: return "ring-conformance";
    case AuditCheck::Progress: return "progress";
    case AuditCheck::RouteClass: return "route-class";
  }
  return "unknown";
}

namespace {

const char* role_name(routing::VcRole role) noexcept {
  switch (role) {
    case routing::VcRole::AdaptiveI: return "AdaptiveI";
    case routing::VcRole::EscapeII: return "EscapeII";
    case routing::VcRole::BcRing: return "BcRing";
    case routing::VcRole::XyEscape: return "XyEscape";
  }
  return "?";
}

/// The first state seen with a given (route site, key): its candidate
/// list is what every later state of the class must reproduce.
struct SiteWitness {
  Coord at;
  Coord dst;
  routing::CandidateList cands;
};
using SiteClass = std::pair<std::uint8_t, std::uint64_t>;  ///< (site, key)

std::string route_class_detail(std::uint8_t site, const SiteWitness& first) {
  std::ostringstream os;
  os << "candidates differ from those at (" << first.at.x << "," << first.at.y
     << ") -> (" << first.dst.x << "," << first.dst.y
     << ") with the same site 0x" << std::hex << static_cast<int>(site)
     << std::dec << " and route-state key";
  return os.str();
}

/// Per-destination audit scratch; results are merged by the caller.
struct DstAudit {
  const routing::RoutingAlgorithm* algo = nullptr;
  const topology::Mesh* mesh = nullptr;
  const fault::FaultMap* faults = nullptr;
  const fault::FRingSet* rings = nullptr;
  const AuditOptions* opts = nullptr;
  Coord dst;
  routing::AuditProfile profile;

  std::uint64_t states = 0;
  std::uint64_t candidates_checked = 0;
  std::uint64_t violation_count = 0;
  std::vector<AuditViolation> violations{};
  std::uint64_t site_states = 0;
  /// This destination's first witness of each (site, key) class; the
  /// caller checks them against the other destinations'.
  std::map<SiteClass, SiteWitness> classes{};

  void flag(AuditCheck check, Coord at, std::uint64_t key, std::string detail) {
    ++violation_count;
    if (violations.size() < opts->max_violations) {
      violations.push_back({check, at, dst, key, std::move(detail)});
    }
  }

  void run(const StateSpace& ss) {
    states = ss.size();
    std::vector<char> has_nonring(ss.size(), 0);  ///< offers >= 1 non-ring candidate
    // Ring-hop edges of the state graph (s -> successor state via a BcRing
    // candidate); exit-free cycles in here are livelocks.
    std::vector<std::vector<std::int32_t>> ring_out(ss.size());
    for (std::size_t s = 0; s < ss.size(); ++s) {
      check_route_class(ss, s);
      has_nonring[s] = check_state(ss, s) ? 1 : 0;
      candidates_checked += ss.cands[s].size();
      for (const auto& w : ss.cands[s]) {
        if (w.next >= 0 && algo->layout().at(w.vc).role == routing::VcRole::BcRing) {
          ring_out[s].push_back(w.next);
        }
      }
    }
    check_ring_orbits(ss, ring_out, has_nonring);
  }

  /// Runs every per-state and per-candidate check on state `s`; returns
  /// whether it offers a non-ring candidate.
  bool check_state(const StateSpace& ss, std::size_t s) {
    const auto& layout = algo->layout();
    const Coord at = ss.at[s];
    const std::uint64_t key = ss.key[s];
    const router::HeaderState& msg = ss.msg[s];

    // Coverage: the fault-map constructors reject disconnecting patterns,
    // so every reachable state sits in a connected component with dst and
    // must make an offer.
    if (ss.fault[s] == StateFault::NoCandidate) {
      flag(AuditCheck::Coverage, at, key,
           "no candidate at a reachable state (pattern is connected)");
      return false;
    }
    bool any_nonring = false;
    for (const auto& w : ss.cands[s]) {
      // VC discipline: index range, permitted role, legal direction.
      if (w.fault == CandidateFault::VcOutsideLayout) {
        std::ostringstream os;
        os << "vc " << w.vc << " outside layout (total " << layout.total() << ")";
        flag(AuditCheck::VcDiscipline, at, key, os.str());
        continue;
      }
      const auto info = layout.at(w.vc);
      if (info.role != routing::VcRole::BcRing) any_nonring = true;
      if (!profile.allows(info.role)) {
        std::ostringstream os;
        os << "role " << role_name(info.role) << " (vc " << w.vc
           << ") outside the declared role mask";
        flag(AuditCheck::VcDiscipline, at, key, os.str());
      }
      if (w.fault == CandidateFault::LocalPort) {
        flag(AuditCheck::VcDiscipline, at, key, "candidate on the local port");
        continue;
      }
      if (w.fault == CandidateFault::OffMesh) {
        flag(AuditCheck::VcDiscipline, at, key, "candidate points off the mesh");
        continue;
      }
      const Coord to = at.step(w.dir);
      if (faults->blocked(to)) {
        std::ostringstream os;
        os << "candidate into blocked node (" << to.x << "," << to.y << ")";
        flag(AuditCheck::VcDiscipline, at, key, os.str());
      }

      if (info.role == routing::VcRole::EscapeII) {
        const auto [lo, hi] = algo->audit_escape_window(at, msg);
        if (info.level < lo || info.level > hi) {
          std::ostringstream os;
          os << "escape class " << info.level << " outside the declared window ["
             << lo << ", " << hi << "]";
          flag(AuditCheck::VcDiscipline, at, key, os.str());
        }
      }

      if (info.role == routing::VcRole::BcRing) {
        check_ring_candidate(at, key, w.vc, to, info.level);
      } else if (profile.misroute_limit >= 0 &&
                 topology::manhattan(to, dst) >= topology::manhattan(at, dst)) {
        // Progress: a non-minimal, non-ring hop must fit the misroute
        // budget; the key abstraction saturates the counter at the limit,
        // so the representative state's counter is exact here.
        const int spent = std::min(static_cast<int>(msg.rs.misroutes),
                                   profile.misroute_limit);
        if (spent >= profile.misroute_limit) {
          std::ostringstream os;
          if (profile.misroute_limit == 0) {
            os << "non-minimal candidate from a strictly minimal algorithm";
          } else {
            os << "non-minimal candidate with the misroute budget ("
               << profile.misroute_limit << ") exhausted";
          }
          flag(AuditCheck::Progress, at, key, os.str());
        }
      }
    }

    if (ss.fault[s] == StateFault::NoEscape) {
      flag(AuditCheck::Coverage, at, key,
           "no escape-capable candidate (EscapeCdg progress condition)");
    }

    // Boppana-Chalasani exit discipline: while not strictly closer than the
    // ring entry point, the ring channel is the only legal offer.
    if (profile.ring_exit_strictly_closer && msg.rs.ring.active &&
        topology::manhattan(at, dst) >=
            static_cast<int>(msg.rs.ring.entry_distance) &&
        any_nonring) {
      flag(AuditCheck::RingConformance, at, key,
           "non-ring candidate before the ring exit condition holds");
    }
    return any_nonring;
  }

  /// Route class: a non-ring state at a uniform node must see exactly the
  /// candidate list of the first state with its (site, key).
  void check_route_class(const StateSpace& ss, std::size_t s) {
    const Coord at = ss.at[s];
    const router::HeaderState& msg = ss.msg[s];
    if (msg.rs.ring.active || !algo->uniform_at(at)) return;
    ++site_states;
    SiteWitness w{at, dst, {}};
    algo->enumerate(at, msg, w.cands);
    const std::uint8_t site = routing::route_site(*mesh, at, dst);
    const SiteClass cls{site, ss.key[s]};
    const auto it = classes.find(cls);
    if (it == classes.end()) {
      classes.emplace(cls, std::move(w));
    } else if (!(it->second.cands == w.cands)) {
      flag(AuditCheck::RouteClass, at, ss.key[s],
           route_class_detail(site, it->second));
    }
  }

  /// A BcRing candidate must ride its message type's dedicated channel and
  /// step to the f-ring successor under that type's fixed orientation.
  void check_ring_candidate(Coord at, std::uint64_t key, int vc, Coord to,
                            int level) {
    const auto& layout = algo->layout();
    if (level < 0 || level >= router::kMsgTypeCount) {
      flag(AuditCheck::RingConformance, at, key, "ring vc with invalid type level");
      return;
    }
    const auto type = static_cast<router::MsgType>(level);
    if (layout.ring_vc(type) != vc) {
      std::ostringstream os;
      os << "ring candidate on vc " << vc << ", but type " << level
         << "'s channel is vc " << layout.ring_vc(type);
      flag(AuditCheck::RingConformance, at, key, os.str());
    }
    const auto orientation = router::ring_orientation(type);
    for (const auto& ring : rings->rings()) {
      if (!ring.contains(at)) continue;
      const auto next = ring.next(at, orientation);
      if (next && *next == to) return;  // conformant ring step
    }
    std::ostringstream os;
    os << "ring hop to (" << to.x << "," << to.y
       << ") is no f-ring successor under type " << level << "'s orientation";
    flag(AuditCheck::RingConformance, at, key, os.str());
  }

  /// Progress: a cycle of ring hops in state space none of whose states
  /// offers a non-ring candidate can never be left — a livelock.  (Cycles
  /// *with* an exit are legitimate: a blocked message may lap a closed ring
  /// until an exit channel frees.)
  void check_ring_orbits(const StateSpace& ss,
                         const std::vector<std::vector<std::int32_t>>& ring_out,
                         const std::vector<char>& has_nonring) {
    const auto scc = strongly_connected_components(ring_out, {});
    // Every state is in some component; a component is done once it is
    // known to have an exit or has been flagged at its first state.
    std::vector<char> done(static_cast<std::size_t>(scc.comp_count), 0);
    for (std::size_t s = 0; s < has_nonring.size(); ++s) {
      if (has_nonring[s] != 0) done[static_cast<std::size_t>(scc.comp[s])] = 1;
    }
    for (std::size_t s = 0; s < has_nonring.size(); ++s) {
      const auto comp = static_cast<std::size_t>(scc.comp[s]);
      if (scc.comp_size[comp] < 2 || done[comp] != 0) continue;
      done[comp] = 1;
      std::ostringstream os;
      os << "exit-free ring orbit (" << scc.comp_size[comp]
         << " states): no state on the cycle offers a non-ring candidate";
      flag(AuditCheck::Progress, ss.at[s], ss.key[s], os.str());
    }
  }
};

}  // namespace

AuditReport audit_algorithm(const routing::RoutingAlgorithm& algo,
                            const topology::Mesh& mesh,
                            const fault::FaultMap& faults,
                            const fault::FRingSet& rings,
                            const AuditOptions& opts) {
  AuditReport report;
  report.algorithm = std::string(algo.name());
  report.width = mesh.width();
  report.height = mesh.height();
  report.total_vcs = algo.layout().total();
  report.faulty = faults.faulty_count();
  report.deactivated = faults.deactivated_count();

  const auto profile = algo.audit_profile();
  auto per_dst = walk_state_space(
      algo, mesh, faults, opts.threads, [&](const StateSpace& ss) {
        DstAudit audit{.algo = &algo, .mesh = &mesh, .faults = &faults,
                       .rings = &rings, .opts = &opts, .dst = ss.dst,
                       .profile = profile};
        audit.run(ss);
        return audit;
      });
  std::map<SiteClass, SiteWitness> classes;  // first witness, any destination
  for (auto& audit : per_dst) {
    report.states_explored += audit.states;
    report.candidates_checked += audit.candidates_checked;
    report.site_states += audit.site_states;
    report.violation_count += audit.violation_count;
    for (auto& v : audit.violations) {
      if (report.violations.size() >= opts.max_violations) break;
      report.violations.push_back(std::move(v));
    }
    // Route class across destinations: each destination's first witness
    // of a class against the first one seen in any destination.
    for (const auto& [cls, w] : audit.classes) {
      const auto [it, first] = classes.try_emplace(cls, w);
      if (first || it->second.cands == w.cands) continue;
      ++report.violation_count;
      if (report.violations.size() < opts.max_violations) {
        report.violations.push_back(
            {AuditCheck::RouteClass, w.at, w.dst, cls.second,
             route_class_detail(cls.first, it->second)});
      }
    }
  }
  return report;
}

void print_audit_report(std::ostream& os, const AuditReport& report) {
  os << (report.ok() ? "OK:  " : "FAIL:") << " audit " << report.algorithm
     << " on " << report.width << "x" << report.height << ", " << report.total_vcs
     << " VCs, faults " << report.faulty << "+" << report.deactivated
     << " deactivated: " << report.states_explored << " states, "
     << report.candidates_checked << " candidates, " << report.violation_count
     << " violation(s)\n";
  for (const auto& v : report.violations) {
    os << "  [" << audit_check_name(v.check) << "] at (" << v.at.x << ","
       << v.at.y << ") -> (" << v.dst.x << "," << v.dst.y << ") key 0x"
       << std::hex << v.key << std::dec << ": " << v.detail << "\n";
  }
  if (report.violation_count > report.violations.size()) {
    os << "  ... " << (report.violation_count - report.violations.size())
       << " more violation(s) suppressed\n";
  }
}

}  // namespace ftmesh::verify
