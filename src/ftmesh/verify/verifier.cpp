#include "ftmesh/verify/verifier.hpp"

#include <ostream>
#include <sstream>

#include "ftmesh/router/channel_id.hpp"
#include "ftmesh/verify/scc.hpp"

namespace ftmesh::verify {

VerifyReport verify_algorithm(const routing::RoutingAlgorithm& algo,
                              const topology::Mesh& mesh,
                              const fault::FaultMap& faults,
                              const VerifyOptions& opts) {
  VerifyReport r;
  r.algorithm = std::string(algo.name());
  r.argument = algo.deadlock_argument();
  r.width = mesh.width();
  r.height = mesh.height();
  r.total_vcs = algo.layout().total();
  r.faulty = faults.faulty_count();
  r.deactivated = faults.deactivated_count();

  const Cdg g = build_cdg(algo, mesh, faults, opts);

  r.channels_total = static_cast<std::int32_t>(g.out.size());
  for (const auto& adj : g.out) r.dependency_edges += adj.size();
  r.states_explored = g.states_explored;
  r.dead_ends = g.dead_ends;
  for (const char u : g.used) r.channels_used += u != 0 ? 1 : 0;

  // Layered acyclicity per the Boppana-Chalasani fortification theorem:
  // the base argument's channel order must hold on the non-ring channels
  // (every used one under FullCdg, the escape ones under EscapeCdg), and
  // separately no message type's arc may wrap a fault ring (the BcRing-only
  // subgraph is acyclic).  Cycles that cross between the layers are
  // deliberately exempt — they are what the fortification theorem
  // dispatches, given exactly these two premises plus the entry/exit
  // discipline the wrapper enforces by construction (docs/verification.md).
  std::vector<char> base(g.used.size(), 0);
  std::vector<char> ring(g.used.size(), 0);
  for (std::size_t c = 0; c < g.used.size(); ++c) {
    const auto vc = router::channel_vc(static_cast<std::int32_t>(c), r.total_vcs);
    const auto role = algo.layout().at(vc).role;
    if (role == routing::VcRole::BcRing) {
      ring[c] = g.used[c] != 0 ? 1 : 0;
      r.ring_channels_checked += g.used[c] != 0 ? 1 : 0;
      continue;
    }
    const bool in = r.argument == routing::DeadlockArgument::FullCdg
                        ? g.used[c] != 0
                        : role != routing::VcRole::AdaptiveI;
    base[c] = in ? 1 : 0;
    r.channels_checked += in ? 1 : 0;
  }

  r.cycle = find_cycle(g.out, base);
  r.ring_cycle = find_cycle(g.out, ring);
  if (r.cycle.empty()) {
    const auto scc = strongly_connected_components(g.out, base);
    // Components come out in reverse topological order (sinks first), so
    // inverting the id gives a rank that increases along every edge.
    r.channel_order.assign(g.used.size(), -1);
    for (std::size_t c = 0; c < g.used.size(); ++c) {
      if (scc.comp[c] >= 0) {
        r.channel_order[c] = scc.comp_count - 1 - scc.comp[c];
      }
    }
  }
  return r;
}

std::string describe_channel(const topology::Mesh& mesh, int total_vcs,
                             std::int32_t channel) {
  const auto node = router::channel_node(channel, total_vcs);
  const auto c = mesh.coord_of(node);
  std::ostringstream os;
  os << "(" << c.x << "," << c.y << ") "
     << topology::to_string(router::channel_dir(channel, total_vcs)) << " vc"
     << router::channel_vc(channel, total_vcs);
  return os.str();
}

void print_report(std::ostream& os, const VerifyReport& r,
                  const topology::Mesh& mesh) {
  const char* subject = r.argument == routing::DeadlockArgument::FullCdg
                            ? "full CDG"
                            : "escape CDG";
  os << r.algorithm << ": " << r.width << "x" << r.height << " mesh, "
     << r.total_vcs << " VCs, " << r.faulty << " faulty + " << r.deactivated
     << " deactivated node(s)\n"
     << "  " << r.states_explored << " states, " << r.channels_used << "/"
     << r.channels_total << " channels used, " << r.dependency_edges
     << " dependencies; checked " << subject << " over " << r.channels_checked
     << " channel(s) + " << r.ring_channels_checked << " ring channel(s)\n";
  const auto print_cycle = [&](const std::vector<std::int32_t>& cycle) {
    for (const auto ch : cycle) {
      os << "    " << describe_channel(mesh, r.total_vcs, ch) << " ->\n";
    }
    os << "    " << describe_channel(mesh, r.total_vcs, cycle.front()) << "\n";
  };
  if (r.ok()) {
    os << "  OK: " << subject << " acyclic, ring arcs acyclic, no routing"
       << " dead end\n";
    return;
  }
  if (!r.cycle.empty()) {
    os << "  FAIL: " << subject << " contains a dependency cycle:\n";
    print_cycle(r.cycle);
  }
  if (!r.ring_cycle.empty()) {
    os << "  FAIL: ring subgraph contains a dependency cycle (an arc wraps"
       << " a fault ring):\n";
    print_cycle(r.ring_cycle);
  }
  for (const auto& d : r.dead_ends) {
    os << "  FAIL: "
       << (d.fault == StateFault::NoEscape           ? "no escape candidate"
           : d.fault == StateFault::InvalidCandidate ? "invalid candidate"
                                                     : "no candidate")
       << " at (" << d.at.x << "," << d.at.y << ") for dst (" << d.dst.x
       << "," << d.dst.y << "), state key 0x" << std::hex << d.key << std::dec
       << "\n";
  }
}

}  // namespace ftmesh::verify
