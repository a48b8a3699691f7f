// Tests for the offline deadlock-freedom verifier (verify::): every
// registered algorithm configuration must verify clean across meshes and
// seeded fault maps, a deliberately broken algorithm must be caught with a
// concrete witness cycle, and the channel-order ranks must plug into the
// router's debug cross-check.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "ftmesh/fault/fring.hpp"
#include "ftmesh/router/channel_id.hpp"
#include "ftmesh/router/network.hpp"
#include "ftmesh/routing/registry.hpp"
#include "ftmesh/sim/rng.hpp"
#include "ftmesh/verify/broken_demo.hpp"
#include "ftmesh/verify/scc.hpp"
#include "ftmesh/verify/verifier.hpp"
#include "routing_fixtures.hpp"

namespace {

using ftmesh::fault::FaultMap;
using ftmesh::fault::FRingSet;
using ftmesh::routing::CandidateList;
using ftmesh::sim::Rng;
using ftmesh::topology::Coord;
using ftmesh::topology::Mesh;
using ftmesh::testing::make_faults;
using ftmesh::verify::find_cycle;
using ftmesh::verify::strongly_connected_components;
using ftmesh::verify::VerifyReport;

VerifyReport verify_named(const std::string& name, const Mesh& mesh,
                          const FaultMap& faults) {
  const FRingSet rings(faults);
  ftmesh::routing::RoutingOptions opts;
  const auto algo =
      ftmesh::routing::make_algorithm(name, mesh, faults, rings, opts);
  return ftmesh::verify::verify_algorithm(*algo, mesh, faults);
}

class AllAlgorithms : public testing::TestWithParam<std::string> {};

TEST_P(AllAlgorithms, VerifiesCleanOn4x4AcrossFaultCounts) {
  const Mesh mesh(4, 4);
  for (const int faults : {0, 1, 2}) {
    const auto fm = make_faults(mesh, faults, 1);
    const auto r = verify_named(GetParam(), mesh, fm);
    std::ostringstream os;
    ftmesh::verify::print_report(os, r, mesh);
    EXPECT_TRUE(r.ok()) << os.str();
    EXPECT_GT(r.states_explored, 0u);
    EXPECT_GT(r.channels_checked, 0);
  }
}

TEST_P(AllAlgorithms, VerifiesCleanOn10x10AcrossFaultCounts) {
  const Mesh mesh(10, 10);
  for (const int faults : {0, 5, 10}) {
    const auto fm = make_faults(mesh, faults, 1);
    const auto r = verify_named(GetParam(), mesh, fm);
    std::ostringstream os;
    ftmesh::verify::print_report(os, r, mesh);
    EXPECT_TRUE(r.ok()) << os.str();
  }
}

TEST_P(AllAlgorithms, ChannelOrderRanksIncreaseAlongBaseDependencies) {
  const Mesh mesh(4, 4);
  const auto fm = make_faults(mesh, 2, 1);
  const FRingSet rings(fm);
  const auto algo = ftmesh::routing::make_algorithm(GetParam(), mesh, fm,
                                                    rings, {});
  const auto r = ftmesh::verify::verify_algorithm(*algo, mesh, fm);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.channel_order.size(),
            static_cast<std::size_t>(r.channels_total));
  // Re-derive the CDG and check the published contract: ranks strictly
  // increase along every dependency between two ranked channels.
  const auto g = ftmesh::verify::build_cdg(*algo, mesh, fm);
  std::size_t ranked = 0;
  for (std::size_t c = 0; c < g.out.size(); ++c) {
    if (r.channel_order[c] < 0) continue;
    ++ranked;
    for (const auto to : g.out[c]) {
      if (r.channel_order[static_cast<std::size_t>(to)] < 0) continue;
      EXPECT_LT(r.channel_order[c],
                r.channel_order[static_cast<std::size_t>(to)]);
    }
  }
  EXPECT_GT(ranked, 0u);
}

TEST_P(AllAlgorithms, VerifiesCleanUnderRandomizedFaultSweep) {
  // Seeded sweep over fault-pattern space: several seeds x several fault
  // counts on an 8x8 mesh.  Every pattern FaultMap::random accepts must
  // verify for every registered algorithm; a pattern-dependent regression
  // (ring handling, region hulls) shows up here before it would in a
  // simulation campaign.
  const Mesh mesh(8, 8);
  for (const std::uint64_t seed : {2u, 3u, 4u}) {
    for (const int faults : {3, 6}) {
      const auto fm = make_faults(mesh, faults, seed);
      const auto r = verify_named(GetParam(), mesh, fm);
      std::ostringstream os;
      ftmesh::verify::print_report(os, r, mesh);
      EXPECT_TRUE(r.ok()) << "seed " << seed << ", " << faults << " faults: "
                          << os.str();
    }
  }
}

std::string param_name(const testing::TestParamInfo<std::string>& p) {
  std::string s = p.param;
  for (auto& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Registry, AllAlgorithms,
                         testing::ValuesIn(ftmesh::routing::algorithm_names()),
                         param_name);

TEST(Verifier, CatchesTheBrokenDemoCycle) {
  const Mesh mesh(4, 4);
  const FaultMap fm(mesh);
  const ftmesh::verify::BrokenDemoRouting broken(mesh, fm);
  const auto r = ftmesh::verify::verify_algorithm(broken, mesh, fm);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.cycle.empty());
  // The witness must be a real cycle: every hop a CDG edge, closing on the
  // first channel.
  const auto g = ftmesh::verify::build_cdg(broken, mesh, fm);
  for (std::size_t i = 0; i < r.cycle.size(); ++i) {
    const auto from = r.cycle[i];
    const auto to = r.cycle[(i + 1) % r.cycle.size()];
    const auto& adj = g.out[static_cast<std::size_t>(from)];
    EXPECT_NE(std::find(adj.begin(), adj.end(), to), adj.end())
        << "missing edge " << from << " -> " << to;
  }
  // No ranks are published for a cyclic graph.
  EXPECT_TRUE(r.channel_order.empty());
}

TEST(Verifier, ReportPrintsCycleAndVerdict) {
  const Mesh mesh(4, 4);
  const FaultMap fm(mesh);
  const ftmesh::verify::BrokenDemoRouting broken(mesh, fm);
  const auto r = ftmesh::verify::verify_algorithm(broken, mesh, fm);
  std::ostringstream os;
  ftmesh::verify::print_report(os, r, mesh);
  EXPECT_NE(os.str().find("FAIL"), std::string::npos);
  EXPECT_NE(os.str().find("cycle"), std::string::npos);

  const auto ok = verify_named("PHop", mesh, fm);
  std::ostringstream os2;
  ftmesh::verify::print_report(os2, ok, mesh);
  EXPECT_NE(os2.str().find("OK"), std::string::npos);
}

TEST(Verifier, ReportsAnOutOfLayoutVcInsteadOfThrowing) {
  // Every candidate names VC 7 on a 1-VC layout: the walk follows none of
  // them, and each reached state is reported rather than indexing the VC
  // layout out of range on a pool worker.
  const Mesh mesh(5, 5);
  const FaultMap fm(mesh);
  const ftmesh::testing::BadVcRouting algo(mesh, fm);
  ftmesh::verify::VerifyReport r;
  ASSERT_NO_THROW(r = ftmesh::verify::verify_algorithm(algo, mesh, fm));
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.dead_ends.empty());
  EXPECT_EQ(r.dead_ends.front().fault,
            ftmesh::verify::StateFault::InvalidCandidate);
  EXPECT_EQ(r.channels_used, 0);
  EXPECT_EQ(r.dependency_edges, 0u);
  std::ostringstream os;
  ftmesh::verify::print_report(os, r, mesh);
  EXPECT_NE(os.str().find("FAIL: invalid candidate"), std::string::npos)
      << os.str();
}

TEST(Scc, FindsComponentsAndCycles) {
  // 0 -> 1 -> 2 -> 0 is a cycle; 3 hangs off it; 4 self-loops.
  std::vector<std::vector<std::int32_t>> adj{{1}, {2}, {0, 3}, {}, {4}};
  const auto scc = strongly_connected_components(adj, {});
  EXPECT_EQ(scc.comp[0], scc.comp[1]);
  EXPECT_EQ(scc.comp[1], scc.comp[2]);
  EXPECT_NE(scc.comp[3], scc.comp[0]);
  EXPECT_NE(scc.comp[4], scc.comp[0]);

  const auto cycle = find_cycle(adj, {});
  EXPECT_FALSE(cycle.empty());

  // Restricting to {3, 4}: only the self-loop remains.
  std::vector<char> include{0, 0, 0, 1, 1};
  const auto loop = find_cycle(adj, include);
  ASSERT_EQ(loop.size(), 1u);
  EXPECT_EQ(loop[0], 4);
}

TEST(CandidateListRegression, PushedTiersWithoutItemsHaveNoUsableTier) {
  // Regression: an algorithm that closes tiers without ever adding a
  // candidate must yield tier_count() == 0 (an all-empty list has no
  // usable tiers), and tier_range() on it is out of bounds.
  CandidateList out;
  out.next_tier();
  out.next_tier();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.tier_count(), 0u);
  EXPECT_DEBUG_DEATH((void)out.tier_range(0), "");
  // Adding one candidate afterwards re-validates the earlier boundaries:
  // two leading empty tiers, one item in the last tier.
  out.add(ftmesh::topology::Direction::XPlus, 0);
  ASSERT_EQ(out.tier_count(), 3u);
  EXPECT_EQ(out.tier_range(0).first, out.tier_range(0).second);
  EXPECT_EQ(out.tier_range(2).second - out.tier_range(2).first, 1u);
}

TEST(NetworkDebugOrder, RejectsWrongSizeAndAcceptsVerifierRanks) {
  const Mesh mesh(4, 4);
  const auto fm = make_faults(mesh, 1, 1);
  const FRingSet rings(fm);
  const auto algo =
      ftmesh::routing::make_algorithm("PHop", mesh, fm, rings, {});
  const auto report = ftmesh::verify::verify_algorithm(*algo, mesh, fm);
  ASSERT_TRUE(report.ok());

  ftmesh::router::Network net(mesh, fm, *algo, {}, Rng(7));
  EXPECT_THROW(net.set_debug_channel_order({1, 2, 3}), std::invalid_argument);
  net.set_debug_channel_order(report.channel_order);

  // Drive traffic through the checked network: in debug builds every
  // routing decision is asserted against the verified channel order.
  auto rng = Rng(99);
  const auto nodes = fm.active_nodes();
  for (int i = 0; i < 40; ++i) {
    const auto src = nodes[rng.next_below(nodes.size())];
    const auto dst = nodes[rng.next_below(nodes.size())];
    if (src == dst) continue;
    net.create_message(src, dst, 4);
  }
  for (int cycle = 0; cycle < 2000; ++cycle) net.step();
  EXPECT_EQ(net.flits_in_network(), 0u);
}

}  // namespace
