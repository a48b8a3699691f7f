// The crossbar's winner pass (router/crossbar.hpp) against the greedy loop
// it replaced: walk the shuffled requests and grant each whose input and
// output port are both still free.  The switch phase's results depend on
// the winners *and* their order (grants emit trace events and credit
// returns in that order), so both must match.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ftmesh/router/crossbar.hpp"
#include "ftmesh/sim/rng.hpp"
#include "ftmesh/topology/coordinates.hpp"

namespace {

using ftmesh::router::CrossbarRequest;
using ftmesh::router::match_crossbar;
using ftmesh::topology::kPortCount;

std::vector<CrossbarRequest> greedy_reference(
    const std::vector<CrossbarRequest>& reqs) {
  bool used_in[kPortCount] = {};
  bool used_out[kPortCount] = {};
  std::vector<CrossbarRequest> won;
  for (const CrossbarRequest& r : reqs) {
    if (used_in[r.in] || used_out[r.out]) continue;
    used_in[r.in] = true;
    used_out[r.out] = true;
    won.push_back(r);
  }
  return won;
}

void expect_same_winners(std::vector<CrossbarRequest> reqs,
                         const std::string& what) {
  const std::vector<CrossbarRequest> want = greedy_reference(reqs);
  const std::size_t won = match_crossbar(reqs);
  ASSERT_EQ(won, want.size()) << what;
  for (std::size_t k = 0; k < won; ++k) {
    EXPECT_EQ(reqs[k].in, want[k].in) << what << ", winner " << k;
    EXPECT_EQ(reqs[k].out, want[k].out) << what << ", winner " << k;
    EXPECT_EQ(reqs[k].bit, want[k].bit) << what << ", winner " << k;
  }
}

TEST(Crossbar, WinnersMatchTheGreedyLoopOnRandomLists) {
  // 12k seeded lists of 0-120 requests; a third draw every input port from
  // one port, a third every output port, the rest both at random.
  ftmesh::sim::Rng rng(2026);
  for (int list = 0; list < 12000; ++list) {
    const auto n = rng.next_below(121);
    const int shape = list % 3;
    const auto same_in = static_cast<std::uint8_t>(rng.next_below(kPortCount));
    const auto same_out = static_cast<std::uint8_t>(rng.next_below(kPortCount));
    std::vector<CrossbarRequest> reqs;
    for (std::uint64_t i = 0; i < n; ++i) {
      CrossbarRequest r;
      r.in = shape == 1 ? same_in
                        : static_cast<std::uint8_t>(rng.next_below(kPortCount));
      r.out = shape == 2 ? same_out
                         : static_cast<std::uint8_t>(rng.next_below(kPortCount));
      r.bit = static_cast<std::uint16_t>(i);  // identifies the request
      reqs.push_back(r);
    }
    expect_same_winners(std::move(reqs), "list " + std::to_string(list));
    if (HasFailure()) return;
  }
}

TEST(Crossbar, EdgeLists) {
  expect_same_winners({}, "empty");
  expect_same_winners({{4, 4, 7}}, "one request");
  // Every request on one input port: only the first wins.
  std::vector<CrossbarRequest> one_in;
  for (std::uint16_t i = 0; i < 120; ++i) {
    one_in.push_back({2, static_cast<std::uint8_t>(i % kPortCount), i});
  }
  expect_same_winners(one_in, "one input port");
  // Every request to one output port: only the first wins.
  std::vector<CrossbarRequest> one_out;
  for (std::uint16_t i = 0; i < 120; ++i) {
    one_out.push_back({static_cast<std::uint8_t>(i % kPortCount), 0, i});
  }
  expect_same_winners(one_out, "one output port");
  // A full permutation: all five win, in list order.
  std::vector<CrossbarRequest> perm = {
      {0, 3, 0}, {1, 4, 1}, {2, 0, 2}, {3, 1, 3}, {4, 2, 4}};
  expect_same_winners(perm, "permutation");
  std::vector<CrossbarRequest> reqs = perm;
  EXPECT_EQ(match_crossbar(reqs), 5u);
}

}  // namespace
