// Tests for the reachable-state walk both static checkers share
// (verify/state_space.hpp): the verifier and the audit explore the same
// states, the explored space matches counts pinned from the two separate
// walkers it replaced, and the walk's own bookkeeping is consistent.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "ftmesh/fault/fring.hpp"
#include "ftmesh/routing/registry.hpp"
#include "ftmesh/verify/audit.hpp"
#include "ftmesh/verify/state_space.hpp"
#include "ftmesh/verify/verifier.hpp"
#include "routing_fixtures.hpp"

namespace {

using ftmesh::fault::FaultMap;
using ftmesh::fault::FRingSet;
using ftmesh::testing::make_faults;
using ftmesh::topology::Coord;
using ftmesh::topology::Mesh;
using ftmesh::verify::CandidateFault;
using ftmesh::verify::StateFault;

// ---- verify and audit explore the identical state space ---------------

class WalkerAgreement
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(WalkerAgreement, VerifyAndAuditCountTheSameStates) {
  const auto& [name, seed] = GetParam();
  const Mesh mesh(6, 6);
  const auto faults = make_faults(mesh, seed == 0 ? 0 : 3, static_cast<std::uint64_t>(seed));
  const FRingSet rings(faults);
  const auto algo = ftmesh::routing::make_algorithm(name, mesh, faults, rings);
  const auto verified = ftmesh::verify::verify_algorithm(*algo, mesh, faults);
  const auto audited = ftmesh::verify::audit_algorithm(*algo, mesh, faults, rings);
  EXPECT_GT(verified.states_explored, 0u);
  EXPECT_EQ(verified.states_explored, audited.states_explored);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, WalkerAgreement,
    ::testing::Combine(::testing::ValuesIn(ftmesh::routing::algorithm_names()),
                       ::testing::Values(0, 2, 3)),
    [](const auto& suite_info) {
      std::string n = std::get<0>(suite_info.param);
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      const int seed = std::get<1>(suite_info.param);
      return n + (seed == 0 ? "_clean" : "_faults3_seed" + std::to_string(seed));
    });

// ---- the explored space is pinned ----------------------------------------

struct Pinned {
  const char* algorithm;
  int node_faults;
  int link_faults;
  std::uint64_t seed;
  std::uint64_t states;
  std::int32_t channels_used;
  std::uint64_t dependency_edges;
};

// 6x6 mesh, default routing options.  Counted by the separate CDG and
// audit walkers before they were merged into one; a change to what the walk
// explores moves these.
const Pinned kPinned[] = {
    {"Fully-Adaptive", 0, 0, 2, 44028, 2400, 163292},
    {"Fully-Adaptive", 3, 0, 2, 34966, 2003, 121547},
    {"Duato-Nbc", 3, 0, 2, 4398, 1941, 74495},
    {"Pbc", 0, 0, 2, 8420, 2280, 47952},
    {"PHop", 3, 0, 2, 5010, 1419, 5084},
    {"NHop", 0, 0, 2, 3420, 1680, 12128},
    {"Boura-FT", 3, 0, 2, 1277, 1906, 76231},
    {"Duato", 3, 2, 1, 1133, 1871, 79530},
    {"Nbc", 3, 2, 1, 3806, 1724, 34438},
};

TEST(StateSpacePinned, ExploredSpaceMatchesTheSeparateWalkers) {
  const Mesh mesh(6, 6);
  for (const auto& p : kPinned) {
    auto rng = ftmesh::sim::Rng(p.seed).derive(0xFA);
    const auto faults = p.node_faults == 0 && p.link_faults == 0
                            ? FaultMap(mesh)
                            : FaultMap::random(mesh, p.node_faults, p.link_faults, rng);
    const FRingSet rings(faults);
    const auto algo = ftmesh::routing::make_algorithm(p.algorithm, mesh, faults, rings);
    const auto r = ftmesh::verify::verify_algorithm(*algo, mesh, faults);
    const std::string what = std::string(p.algorithm) + " with " +
                             std::to_string(p.node_faults) + "+" +
                             std::to_string(p.link_faults) + "L faults";
    EXPECT_TRUE(r.ok()) << what;
    EXPECT_EQ(r.states_explored, p.states) << what;
    EXPECT_EQ(r.channels_used, p.channels_used) << what;
    EXPECT_EQ(r.dependency_edges, p.dependency_edges) << what;
  }
}

// ---- one destination's walk ---------------------------------------------

TEST(StateSpace, EveryValidHopEntersAStateAtItsNeighbour) {
  const Mesh mesh(5, 5);
  const auto faults = make_faults(mesh, 2, 3);
  const FRingSet rings(faults);
  const auto algo = ftmesh::routing::make_algorithm("Duato-Pbc", mesh, faults, rings);
  const Coord dst{4, 4};
  const auto ss = ftmesh::verify::walk_destination(*algo, mesh, faults, dst);
  ASSERT_GT(ss.size(), 0u);
  ASSERT_EQ(ss.cands.size(), ss.size());
  // State 0 is a seed: its header still names its own source.
  EXPECT_EQ(ss.msg.front().src, ss.at.front());
  for (std::size_t s = 0; s < ss.size(); ++s) {
    EXPECT_EQ(ss.fault[s], StateFault::None);
    EXPECT_NE(ss.at[s], dst);
    for (const auto& w : ss.cands[s]) {
      ASSERT_EQ(w.fault, CandidateFault::None);
      const Coord to = ss.at[s].step(w.dir);
      if (to == dst) {
        EXPECT_EQ(w.next, -1);
        continue;
      }
      ASSERT_GE(w.next, 0);
      ASSERT_LT(static_cast<std::size_t>(w.next), ss.size());
      EXPECT_EQ(ss.at[static_cast<std::size_t>(w.next)], to);
    }
  }
}

TEST(StateSpace, InvalidCandidatesAreCheckedOnceAndNotWalked) {
  const Mesh mesh(4, 4);
  const FaultMap faults(mesh);
  const ftmesh::testing::BadVcRouting algo(mesh, faults);
  const auto ss = ftmesh::verify::walk_destination(algo, mesh, faults, Coord{0, 0});
  // Nothing is followed, so only the 15 source states are reached.
  EXPECT_EQ(ss.size(), 15u);
  for (std::size_t s = 0; s < ss.size(); ++s) {
    EXPECT_EQ(ss.fault[s], StateFault::InvalidCandidate);
    for (const auto& w : ss.cands[s]) {
      EXPECT_EQ(w.fault, CandidateFault::VcOutsideLayout);
      EXPECT_EQ(w.vc, 7);
      EXPECT_EQ(w.next, -1);
    }
  }
}

}  // namespace
