#include "ftmesh/verify/cdg.hpp"

#include <bit>
#include <cstddef>
#include <mutex>

#include "ftmesh/router/channel_id.hpp"

namespace ftmesh::verify {

using router::channel_id;
using topology::Coord;
using topology::Direction;
using topology::kMeshDirections;

Cdg build_cdg(const routing::RoutingAlgorithm& algo, const topology::Mesh& mesh,
              const fault::FaultMap& faults, const VerifyOptions& opts) {
  const int vcs = algo.layout().total();
  // 64-bit words in one out-channel mask (4 * vcs bits).
  const std::size_t words =
      (static_cast<std::size_t>(kMeshDirections) * static_cast<std::size_t>(vcs) + 63) / 64;
  const std::int32_t nch = router::channel_table_size(mesh.node_count(), vcs);

  // Bit (port * vcs + vc) of a channel's dependency mask marks that
  // out-channel of the node the channel points into; the same bit of a
  // node's used mask marks its own out-channel as requested by some state.
  std::vector<std::uint64_t> dep_mask(static_cast<std::size_t>(nch) * words, 0);
  std::vector<std::uint64_t> used_mask(
      static_cast<std::size_t>(mesh.node_count()) * words, 0);
  Cdg g;
  std::mutex merge_mutex;  // guards dep_mask, used_mask and g.states_explored
  const auto per_dst = walk_state_space(
      algo, mesh, faults, opts.threads, [&](const StateSpace& ss) {
        std::vector<DeadEnd> dead_ends;
        std::vector<std::uint64_t> state_mask(ss.size() * words, 0);
        for (std::size_t s = 0; s < ss.size(); ++s) {
          for (const auto& w : ss.cands[s]) {
            if (w.fault != CandidateFault::None) continue;
            const auto rel = static_cast<std::size_t>(
                topology::port_index(w.dir) * vcs + w.vc);
            state_mask[s * words + rel / 64] |= 1ull << (rel % 64);
          }
          if (ss.fault[s] != StateFault::None &&
              dead_ends.size() < opts.max_dead_ends) {
            dead_ends.push_back({ss.at[s], ss.dst, ss.key[s], ss.fault[s]});
          }
        }
        std::vector<std::uint64_t> dep(dep_mask.size(), 0);
        std::vector<std::uint64_t> used(used_mask.size(), 0);
        for (std::size_t s = 0; s < ss.size(); ++s) {
          const auto node = static_cast<std::size_t>(mesh.id_of(ss.at[s]));
          for (std::size_t k = 0; k < words; ++k) {
            used[node * words + k] |= state_mask[s * words + k];
          }
          for (const auto& w : ss.cands[s]) {
            if (w.next < 0) continue;
            // The header now holds `ch` while requesting the candidates of
            // the state it entered: every such pair is a dependency edge.
            const auto ch = static_cast<std::size_t>(
                channel_id(static_cast<topology::NodeId>(node), w.dir, w.vc, vcs));
            for (std::size_t k = 0; k < words; ++k) {
              dep[ch * words + k] |=
                  state_mask[static_cast<std::size_t>(w.next) * words + k];
            }
          }
        }
        const std::lock_guard<std::mutex> lock(merge_mutex);
        g.states_explored += ss.size();
        for (std::size_t i = 0; i < dep.size(); ++i) dep_mask[i] |= dep[i];
        for (std::size_t i = 0; i < used.size(); ++i) used_mask[i] |= used[i];
        return dead_ends;
      });
  for (const auto& dead_ends : per_dst) {
    for (const auto& d : dead_ends) {
      if (g.dead_ends.size() >= opts.max_dead_ends) break;
      g.dead_ends.push_back(d);
    }
  }

  // Expand the per-channel dependency masks into adjacency lists.
  g.out.assign(static_cast<std::size_t>(nch), {});
  g.used.assign(static_cast<std::size_t>(nch), 0);
  for (std::int32_t ch = 0; ch < nch; ++ch) {
    const auto node = router::channel_node(ch, vcs);
    const auto bit = static_cast<std::size_t>(ch % (kMeshDirections * vcs));
    g.used[static_cast<std::size_t>(ch)] = static_cast<char>(
        (used_mask[static_cast<std::size_t>(node) * words + bit / 64] >> (bit % 64)) & 1);
    const Coord into = mesh.coord_of(node).step(router::channel_dir(ch, vcs));
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = dep_mask[static_cast<std::size_t>(ch) * words + w];
      while (bits != 0) {
        const auto rel = static_cast<int>(w * 64) + std::countr_zero(bits);
        bits &= bits - 1;
        const auto dir = static_cast<Direction>(rel / vcs);
        const std::int32_t to_ch =
            channel_id(mesh.id_of(into), dir, rel % vcs, vcs);
        g.out[static_cast<std::size_t>(ch)].push_back(to_ch);
      }
    }
  }
  return g;
}

}  // namespace ftmesh::verify
