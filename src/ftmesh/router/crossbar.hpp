#pragma once
// The crossbar's winner pass: greedy matching of a shuffled request list.
//
// The paper resolves switch conflicts at random: shuffle the requests,
// then grant greedily, at most one flit per input port and one per output
// port.  A request is fully described, for this purpose, by its (input
// port, output port) pair, and a grant never changes another request's
// pair, so the winners can be picked before any of them is granted.

#include <cstdint>
#include <span>

namespace ftmesh::router {

/// One sendable flit asking for the crossbar: input VC `bit` (flat
/// `port * vcs + vc`) on input port `in`, bound for output port `out`.
struct CrossbarRequest {
  std::uint8_t in;
  std::uint8_t out;
  std::uint16_t bit;
};

/// Walks `reqs` in order and keeps each request whose input port and output
/// port are both still unused, compacting the winners to the front in that
/// order; returns how many won.  Branch-free: 5-bit port masks, and every
/// request is written to the next winner position, which advances only when
/// it won.
[[nodiscard]] inline std::size_t match_crossbar(
    std::span<CrossbarRequest> reqs) noexcept {
  std::uint32_t used_in = 0;
  std::uint32_t used_out = 0;
  std::size_t won = 0;
  for (const CrossbarRequest r : reqs) {
    const std::uint32_t take = ~((used_in >> r.in) | (used_out >> r.out)) & 1u;
    used_in |= take << r.in;
    used_out |= take << r.out;
    reqs[won] = r;
    won += take;
  }
  return won;
}

}  // namespace ftmesh::router
