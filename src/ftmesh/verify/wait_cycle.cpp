#include "ftmesh/verify/wait_cycle.hpp"

#include <cstdint>

#include "ftmesh/verify/scc.hpp"

namespace ftmesh::verify {

std::vector<router::MessageId> find_wait_cycle(const router::Network& net) {
  // Vertices are message slots; edges run from a waiting header to the
  // owner of each allocated candidate channel (all tiers).
  const topology::Mesh& mesh = net.mesh();
  const routing::RoutingAlgorithm& algorithm = net.algorithm();
  const int vcs = algorithm.layout().total();
  std::vector<std::vector<std::int32_t>> waits_on(net.messages().size());
  routing::CandidateList cand;
  for (topology::NodeId id = 0; id < mesh.node_count(); ++id) {
    const topology::Coord c = mesh.coord_of(id);
    const router::Router& rt = net.router_at(c);
    for (int port = 0; port < topology::kPortCount; ++port) {
      for (int vc = 0; vc < vcs; ++vc) {
        const router::InputVc& ivc = rt.input(port, vc);
        if (ivc.buf.empty()) continue;
        const router::Flit& front = ivc.buf.front();
        if (!router::is_head(front.type) ||
            net.input_route(c, port, vc).active()) {
          continue;
        }
        const router::HeaderState& header = net.headers()[front.msg];
        if (c == header.dst) continue;
        cand.clear();
        algorithm.enumerate(c, header, cand);
        for (std::size_t i = 0; i < cand.size(); ++i) {
          const router::OutputVc& ovc =
              rt.output(topology::port_index(cand[i].dir), cand[i].vc);
          if (ovc.allocated && ovc.owner != front.msg) {
            waits_on[front.msg].push_back(static_cast<std::int32_t>(ovc.owner));
          }
        }
      }
    }
  }
  std::vector<router::MessageId> ids;
  for (const std::int32_t slot : find_cycle(waits_on, {})) {
    ids.push_back(net.messages()[static_cast<std::size_t>(slot)].id);
  }
  return ids;
}

}  // namespace ftmesh::verify
