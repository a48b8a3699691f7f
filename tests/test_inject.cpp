// Tests for the dynamic fault-injection engine (inject/): schedule parsing,
// reconfiguration admissibility, incremental f-ring rebuild equivalence,
// deadlock-freedom of post-event fault maps (via the offline verifier), and
// end-to-end message accounting under runtime failures.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ftmesh/core/simulator.hpp"
#include "ftmesh/fault/fring.hpp"
#include "ftmesh/inject/fault_injector.hpp"
#include "ftmesh/inject/fault_schedule.hpp"
#include "ftmesh/inject/reconfigurator.hpp"
#include "ftmesh/routing/registry.hpp"
#include "ftmesh/stats/reliability_stats.hpp"
#include "ftmesh/verify/verifier.hpp"
#include "golden_corpus.hpp"

namespace {

using ftmesh::core::SimConfig;
using ftmesh::core::Simulator;
using ftmesh::fault::FaultMap;
using ftmesh::fault::FRingSet;
using ftmesh::inject::FaultEvent;
using ftmesh::inject::FaultEventKind;
using ftmesh::inject::FaultSchedule;
using ftmesh::inject::Reconfigurator;
using ftmesh::sim::Rng;
using ftmesh::topology::Coord;
using ftmesh::topology::Mesh;

// ---------------------------------------------------------------- schedule

TEST(FaultSchedule, ParsesExplicitEventsInTimeOrder) {
  const Mesh m(10, 10);
  auto s = FaultSchedule::from_spec("repair@200:2,3; fail@100:2,3", m, Rng(1));
  EXPECT_EQ(s.total_events(), 2u);
  EXPECT_EQ(s.horizon(), 200.0);
  EXPECT_FALSE(s.due(99.0));
  ASSERT_TRUE(s.due(100.0));
  const auto first = s.pop();
  EXPECT_EQ(first.kind, FaultEventKind::Fail);
  EXPECT_EQ(first.node, (Coord{2, 3}));
  ASSERT_TRUE(s.due(200.0));
  EXPECT_EQ(s.pop().kind, FaultEventKind::Repair);
  EXPECT_TRUE(s.empty());
}

TEST(FaultSchedule, BlankSpecIsEmpty) {
  const Mesh m(4, 4);
  EXPECT_TRUE(FaultSchedule::from_spec("", m, Rng(1)).empty());
  EXPECT_TRUE(FaultSchedule::from_spec("  ;  ", m, Rng(1)).empty());
}

TEST(FaultSchedule, RejectsMalformedSpecs) {
  const Mesh m(8, 8);
  for (const char* spec : {
           "explode@100:1,1",         // unknown kind
           "fail@100:9,1",            // x off mesh
           "fail@100:1",              // missing y
           "fail@nope:1,1",           // bad cycle
           "random:count=0",          // no events
           "random:count=2",          // rate=0 needs an end
           "random:count=2,rate=0,start=50,end=40",  // empty window
           "random:count=2,bogus=1",  // unknown key
       }) {
    EXPECT_THROW(FaultSchedule::from_spec(spec, m, Rng(1)),
                 std::invalid_argument)
        << spec;
    EXPECT_THROW(FaultSchedule::validate_spec(spec, m), std::invalid_argument)
        << spec;
  }
  EXPECT_NO_THROW(
      FaultSchedule::validate_spec("fail@10:1,1; random:count=2,rate=0.01", m));
}

TEST(FaultSchedule, RejectsNonFiniteAndNonIntegralNumbers) {
  // parse_number used to accept nan/inf/overflow and fractional values,
  // then static_cast them to int — undefined behaviour, caught only by
  // UBSan.  All of these must now be typed parse errors.
  const Mesh m(8, 8);
  for (const char* spec : {
           "fail@100:nan,1",               // nan coordinate
           "fail@100:inf,1",               // inf coordinate
           "fail@inf:1,1",                 // inf cycle
           "fail@100:1e300,1",             // out of int range
           "fail@100:-1e300,1",            // out of int range (negative)
           "fail@100:1.5,1",               // fractional coordinate
           "random:count=nan,rate=0.01",   // nan count
           "random:count=2.5,rate=0.01",   // fractional count
           "random:count=1e12,rate=0.01",  // count out of int range
           "random:count=2,rate=nan",      // nan rate
           "random:count=2,rate=0,start=0,end=inf",  // inf window
       }) {
    EXPECT_THROW(FaultSchedule::validate_spec(spec, m),
                 ftmesh::inject::FaultScheduleError)
        << spec;
  }
}

TEST(FaultSchedule, RejectsEndWithPositiveRate) {
  // end= used to be silently ignored when rate>0 — a different experiment
  // than the spec asked for.  It is now a conflict error.
  const Mesh m(8, 8);
  EXPECT_THROW(FaultSchedule::validate_spec(
                   "random:count=2,rate=0.01,start=0,end=100", m),
               ftmesh::inject::FaultScheduleError);
  EXPECT_NO_THROW(
      FaultSchedule::validate_spec("random:count=2,rate=0.01,start=0", m));
  EXPECT_NO_THROW(
      FaultSchedule::validate_spec("random:count=2,rate=0,start=0,end=100", m));
}

TEST(FaultSchedule, RejectsCountBeyondPopulation) {
  const Mesh m(3, 3);  // 9 nodes, 12 physical links
  EXPECT_THROW(
      FaultSchedule::validate_spec("random:count=10,rate=0.01", m),
      ftmesh::inject::FaultScheduleError);
  EXPECT_THROW(
      FaultSchedule::validate_spec("random-link:count=13,rate=0.01", m),
      ftmesh::inject::FaultScheduleError);
  EXPECT_NO_THROW(
      FaultSchedule::validate_spec("random-link:count=12,rate=0.01", m));
}

TEST(FaultSchedule, ParsesLinkEvents) {
  const Mesh m(8, 8);
  auto s = FaultSchedule::from_spec(
      "fail-link@100:3,3,E; repair-link@200:3,3,x+; fail-link@300:2,2,N", m,
      Rng(1));
  EXPECT_EQ(s.total_events(), 3u);
  auto ev = s.pop();
  EXPECT_EQ(ev.kind, FaultEventKind::FailLink);
  EXPECT_EQ(ev.node, (Coord{3, 3}));
  EXPECT_EQ(ev.dir, ftmesh::topology::Direction::XPlus);
  ev = s.pop();
  EXPECT_EQ(ev.kind, FaultEventKind::RepairLink);
  EXPECT_EQ(ev.dir, ftmesh::topology::Direction::XPlus);
  ev = s.pop();
  EXPECT_EQ(ev.kind, FaultEventKind::FailLink);
  EXPECT_EQ(ev.dir, ftmesh::topology::Direction::YPlus);
}

TEST(FaultSchedule, RejectsMalformedLinkEvents) {
  const Mesh m(8, 8);
  for (const char* spec : {
           "fail-link@100:3,3",     // missing direction
           "fail-link@100:3,3,Q",   // unknown direction
           "fail-link@100:7,3,E",   // neighbour off the mesh
           "fail-link@100:0,0,W",   // neighbour off the mesh (negative)
           "repair-link@100:3,3",   // missing direction
           "random-link:count=0",   // no events
       }) {
    EXPECT_THROW(FaultSchedule::validate_spec(spec, m),
                 ftmesh::inject::FaultScheduleError)
        << spec;
  }
}

TEST(FaultSchedule, RandomLinkDrawsDistinctLinks) {
  const Mesh m(6, 6);
  auto s = FaultSchedule::from_spec(
      "random-link:count=5,rate=0,start=10,end=90,repair_after=25", m, Rng(4));
  EXPECT_EQ(s.total_events(), 5u);
  std::set<std::tuple<int, int, int>> links;
  while (!s.empty()) {
    const auto ev = s.pop();
    EXPECT_EQ(ev.kind, FaultEventKind::FailLink);
    EXPECT_DOUBLE_EQ(ev.repair_after, 25.0);
    links.insert({ev.node.x, ev.node.y, static_cast<int>(ev.dir)});
  }
  EXPECT_EQ(links.size(), 5u);
}

TEST(FaultSchedule, RandomProcessRespectsWindowAndCount) {
  const Mesh m(10, 10);
  auto s = FaultSchedule::from_spec("random:count=5,rate=0.01,start=300", m,
                                    Rng(7));
  EXPECT_EQ(s.total_events(), 5u);
  double prev = 300.0;
  while (!s.empty()) {
    ASSERT_TRUE(s.due(s.horizon()));
    // Events come out in time order, all at or after `start`.
    // (pop() returns the payload; times are monotone by queue contract.)
    s.pop();
    (void)prev;
  }
}

TEST(FaultSchedule, RepairAfterRidesOnTheFailure) {
  // Repairs are no longer pre-enqueued as separate events: the injector
  // schedules each one only when its failure applies, so a rejected
  // failure cannot strand a stray repair.  The schedule therefore holds
  // exactly `count` Fail events, each carrying the coupling delay.
  const Mesh m(10, 10);
  auto s = FaultSchedule::from_spec(
      "random:count=3,rate=0,start=100,end=200,repair_after=50", m, Rng(3));
  EXPECT_EQ(s.total_events(), 3u);
  std::set<std::pair<int, int>> failed;
  while (!s.empty()) {
    const auto ev = s.pop();
    EXPECT_EQ(ev.kind, FaultEventKind::Fail);
    EXPECT_DOUBLE_EQ(ev.repair_after, 50.0);
    failed.insert({ev.node.x, ev.node.y});
  }
  // Targets within one random item are drawn distinct.
  EXPECT_EQ(failed.size(), 3u);
}

TEST(FaultSchedule, DeterministicForSameSeed) {
  const Mesh m(10, 10);
  auto drain = [&](std::uint64_t seed) {
    auto s = FaultSchedule::from_spec("random:count=6,rate=0.002,start=500", m,
                                      Rng(seed));
    std::vector<std::tuple<int, int, int>> out;
    while (!s.empty()) {
      const auto ev = s.pop();
      out.emplace_back(static_cast<int>(ev.kind), ev.node.x, ev.node.y);
    }
    return out;
  };
  EXPECT_EQ(drain(5), drain(5));
  EXPECT_NE(drain(5), drain(6));
}

// ----------------------------------------------------------- reconfigurator

TEST(Reconfigurator, AppliesFailAndRepair) {
  const Mesh m(10, 10);
  FaultMap map(m);
  FRingSet rings(map);
  Reconfigurator rc(map, rings);

  auto out = rc.apply({FaultEventKind::Fail, {4, 4}});
  EXPECT_TRUE(out.applied) << out.reason;
  EXPECT_TRUE(map.blocked({4, 4}));
  ASSERT_EQ(rings.ring_count(), 1u);
  EXPECT_EQ(rings.ring(0).nodes().size(), 8u);

  out = rc.apply({FaultEventKind::Repair, {4, 4}});
  EXPECT_TRUE(out.applied) << out.reason;
  EXPECT_TRUE(map.active({4, 4}));
  EXPECT_EQ(rings.ring_count(), 0u);
}

TEST(Reconfigurator, RejectsInadmissibleEvents) {
  const Mesh m(10, 10);
  FaultMap map = FaultMap::from_faulty_nodes(m, {{4, 4}});
  FRingSet rings(map);
  Reconfigurator rc(map, rings);

  // Off-mesh node.
  EXPECT_FALSE(rc.apply({FaultEventKind::Fail, {10, 4}}).applied);
  // Failing an already-faulty node.
  EXPECT_FALSE(rc.apply({FaultEventKind::Fail, {4, 4}}).applied);
  // Repairing a healthy node.
  EXPECT_FALSE(rc.apply({FaultEventKind::Repair, {1, 1}}).applied);
  // Map untouched by the rejections.
  EXPECT_EQ(map.faulty_count(), 1);
  EXPECT_EQ(rings.ring_count(), 1u);
}

TEST(Reconfigurator, RejectsDisconnectingFailure) {
  // 3x3 mesh with a vertical cut forming: failing (1,2) would sever column
  // x=0 from column x=2.
  const Mesh m(3, 3);
  FaultMap map = FaultMap::from_faulty_nodes(m, {{1, 0}, {1, 1}});
  FRingSet rings(map);
  Reconfigurator rc(map, rings);

  const auto out = rc.apply({FaultEventKind::Fail, {1, 2}});
  EXPECT_FALSE(out.applied);
  EXPECT_FALSE(out.reason.empty());
  EXPECT_TRUE(map.active({1, 2}));
  EXPECT_EQ(map.faulty_count(), 2);
}

TEST(Reconfigurator, CommitsInPlaceSoObserversSeeTheChange) {
  const Mesh m(8, 8);
  FaultMap map(m);
  FRingSet rings(map);
  const FaultMap* observer = &map;  // what routers/algorithms hold
  Reconfigurator rc(map, rings);
  ASSERT_TRUE(rc.apply({FaultEventKind::Fail, {3, 3}}).applied);
  EXPECT_TRUE(observer->blocked({3, 3}));
  EXPECT_EQ(observer, &map);
}

TEST(Reconfigurator, AppliesLinkFailAndRepair) {
  const Mesh m(10, 10);
  FaultMap map(m);
  FRingSet rings(map);
  Reconfigurator rc(map, rings);
  using ftmesh::topology::Direction;

  auto out = rc.apply({FaultEventKind::FailLink, {4, 4}, Direction::XPlus});
  EXPECT_TRUE(out.applied) << out.reason;
  EXPECT_FALSE(map.link_alive({4, 4}, Direction::XPlus));
  EXPECT_FALSE(map.link_alive({5, 4}, Direction::XMinus));
  EXPECT_TRUE(map.active({4, 4}));
  EXPECT_TRUE(map.active({5, 4}));
  ASSERT_EQ(rings.ring_count(), 1u);

  // The repair may address the link from either endpoint.
  out = rc.apply({FaultEventKind::RepairLink, {5, 4}, Direction::XMinus});
  EXPECT_TRUE(out.applied) << out.reason;
  EXPECT_TRUE(map.link_alive({4, 4}, Direction::XPlus));
  EXPECT_EQ(map.dead_link_count(), 0);
  EXPECT_EQ(rings.ring_count(), 0u);
}

TEST(Reconfigurator, RejectsInadmissibleLinkEvents) {
  const Mesh m(10, 10);
  FaultMap map(m);
  FRingSet rings(map);
  Reconfigurator rc(map, rings);
  using ftmesh::topology::Direction;

  ASSERT_TRUE(
      rc.apply({FaultEventKind::FailLink, {4, 4}, Direction::XPlus}).applied);
  // Same physical link again, from the other endpoint.
  auto out = rc.apply({FaultEventKind::FailLink, {5, 4}, Direction::XMinus});
  EXPECT_FALSE(out.applied);
  EXPECT_EQ(out.reason, "link already faulty");
  // Repairing a healthy link.
  out = rc.apply({FaultEventKind::RepairLink, {1, 1}, Direction::XPlus});
  EXPECT_FALSE(out.applied);
  EXPECT_EQ(out.reason, "repair of a link that is not faulty");
  // Link off the mesh.
  out = rc.apply({FaultEventKind::FailLink, {9, 4}, Direction::XPlus});
  EXPECT_FALSE(out.applied);
  EXPECT_EQ(map.dead_link_count(), 1);
}

TEST(Reconfigurator, RejectsDisconnectingLinkCut) {
  const Mesh m(2, 2);
  FaultMap map(m);
  FRingSet rings(map);
  Reconfigurator rc(map, rings);
  using ftmesh::topology::Direction;
  ASSERT_TRUE(
      rc.apply({FaultEventKind::FailLink, {0, 0}, Direction::XPlus}).applied);
  // The second cut would isolate (0,0).
  const auto out =
      rc.apply({FaultEventKind::FailLink, {0, 0}, Direction::YPlus});
  EXPECT_FALSE(out.applied);
  EXPECT_FALSE(out.reason.empty());
  EXPECT_EQ(map.dead_link_count(), 1);
}

// ------------------------------------------------ incremental ring rebuild

void expect_rings_equal(const FRingSet& got, const FRingSet& fresh) {
  ASSERT_EQ(got.ring_count(), fresh.ring_count());
  for (std::size_t i = 0; i < fresh.ring_count(); ++i) {
    const auto& a = got.ring(static_cast<int>(i));
    const auto& b = fresh.ring(static_cast<int>(i));
    EXPECT_EQ(a.region_id(), b.region_id());
    EXPECT_EQ(a.region_box(), b.region_box());
    EXPECT_EQ(a.closed(), b.closed());
    EXPECT_EQ(a.nodes(), b.nodes());
  }
}

void expect_membership_matches(const Mesh& m, const FRingSet& got,
                               const FRingSet& fresh) {
  for (int y = 0; y < m.height(); ++y) {
    for (int x = 0; x < m.width(); ++x) {
      EXPECT_EQ(got.on_any_ring({x, y}), fresh.on_any_ring({x, y}))
          << x << "," << y;
    }
  }
}

TEST(IncrementalRebuild, MergeOfOverlappingRegionsMidRun) {
  const Mesh m(10, 10);
  FaultMap map = FaultMap::from_faulty_nodes(m, {{2, 2}, {4, 4}});
  FRingSet rings(map);
  Reconfigurator rc(map, rings);
  ASSERT_EQ(rings.ring_count(), 2u);

  // (3,3) is Chebyshev-adjacent to both regions: all three coalesce into
  // one hull [2..4]x[2..4] with deactivated interior nodes.
  const auto out = rc.apply({FaultEventKind::Fail, {3, 3}});
  ASSERT_TRUE(out.applied) << out.reason;
  ASSERT_EQ(map.regions().size(), 1u);
  EXPECT_EQ(map.regions()[0].box, (ftmesh::fault::Rect{2, 2, 4, 4}));
  EXPECT_GT(map.deactivated_count(), 0);
  // Both old rings changed boxes, so nothing could be reused.
  EXPECT_EQ(out.rings_reused, 0);
  EXPECT_EQ(out.rings_rebuilt, 1);

  const FRingSet fresh(map);
  expect_rings_equal(rings, fresh);
  expect_membership_matches(m, rings, fresh);
}

TEST(IncrementalRebuild, FaultOnExistingRingNode) {
  const Mesh m(10, 10);
  FaultMap map = FaultMap::from_faulty_nodes(m, {{4, 4}});
  FRingSet rings(map);
  Reconfigurator rc(map, rings);
  ASSERT_TRUE(rings.ring(0).contains({5, 4}));

  // The new fault sits on the old ring: the region grows to a 1x2 hull and
  // the ring must be rebuilt around it.
  const auto out = rc.apply({FaultEventKind::Fail, {5, 4}});
  ASSERT_TRUE(out.applied) << out.reason;
  ASSERT_EQ(map.regions().size(), 1u);
  EXPECT_EQ(map.regions()[0].box, (ftmesh::fault::Rect{4, 4, 5, 4}));
  EXPECT_EQ(out.rings_rebuilt, 1);
  EXPECT_FALSE(rings.ring(0).contains({5, 4}));
  for (const auto c : rings.ring(0).nodes()) EXPECT_TRUE(map.active(c));

  expect_rings_equal(rings, FRingSet(map));
}

TEST(IncrementalRebuild, RepairSplitsABlock) {
  const Mesh m(10, 10);
  // Three-in-a-row region [3..5]x[4..4]; repairing the middle splits it
  // into two singleton regions two apart.
  FaultMap map = FaultMap::from_faulty_nodes(m, {{3, 4}, {4, 4}, {5, 4}});
  FRingSet rings(map);
  Reconfigurator rc(map, rings);
  ASSERT_EQ(rings.ring_count(), 1u);

  const auto out = rc.apply({FaultEventKind::Repair, {4, 4}});
  ASSERT_TRUE(out.applied) << out.reason;
  // (4,4) is adjacent to both survivors, so they re-coalesce unless the
  // repair separates them by >= 2... with Chebyshev gap 1 they merge back
  // into the hull and (4,4) becomes deactivated again.  Verify whatever the
  // coalescer decided matches a scratch build.
  expect_rings_equal(rings, FRingSet(map));
  expect_membership_matches(m, rings, FRingSet(map));
}

TEST(IncrementalRebuild, DistantRingsAreReusedNotRebuilt) {
  const Mesh m(12, 12);
  FaultMap map = FaultMap::from_faulty_nodes(m, {{2, 2}, {9, 9}});
  FRingSet rings(map);
  Reconfigurator rc(map, rings);
  ASSERT_EQ(rings.ring_count(), 2u);

  // A third fault far from both: the two existing rings keep their boxes.
  const auto out = rc.apply({FaultEventKind::Fail, {6, 2}});
  ASSERT_TRUE(out.applied) << out.reason;
  EXPECT_EQ(out.rings_reused, 2);
  EXPECT_EQ(out.rings_rebuilt, 1);
  expect_rings_equal(rings, FRingSet(map));
}

TEST(IncrementalRebuild, RandomEventSequencesMatchScratchBuild) {
  const Mesh m(10, 10);
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    FaultMap map(m);
    FRingSet rings(map);
    Reconfigurator rc(map, rings);
    for (int step = 0; step < 12; ++step) {
      const Coord c{static_cast<int>(rng.next_below(10)),
                    static_cast<int>(rng.next_below(10))};
      const bool fail = map.active(c);
      const auto out =
          rc.apply({fail ? FaultEventKind::Fail : FaultEventKind::Repair, c});
      if (!out.applied) continue;  // inadmissible draws are fine
      const FRingSet fresh(map);
      expect_rings_equal(rings, fresh);
      expect_membership_matches(m, rings, fresh);
    }
  }
}

// ------------------------------------------- injector: coupled repairs

TEST(FaultInjector, RejectedFailureStrandsNoRepair) {
  // Two Fail events for the same node, both carrying repair_after.  The
  // old parser pre-enqueued both Repairs; the rejected second Fail then
  // left a stray Repair that prematurely revived the node.  Coupling the
  // repair to the failure's commit yields exactly one repair.
  const Mesh m(8, 8);
  FaultMap map(m);
  FRingSet rings(map);
  auto algo = ftmesh::routing::make_algorithm("Minimal-Adaptive", m, map, rings);
  ftmesh::router::Network net(m, map, *algo, {}, Rng(7));

  FaultSchedule sched;
  sched.add(1, FaultEvent{FaultEventKind::Fail, {4, 4},
                          ftmesh::topology::Direction::XPlus, 10.0});
  sched.add(2, FaultEvent{FaultEventKind::Fail, {4, 4},
                          ftmesh::topology::Direction::XPlus, 3.0});
  ftmesh::inject::FaultInjector inj(std::move(sched), map, rings, {});

  bool repaired_early = false;
  for (int cycle = 0; cycle < 16; ++cycle) {
    inj.tick(net);
    if (cycle > 2 && cycle < 11 && map.active({4, 4})) repaired_early = true;
    net.step();
  }
  // The stray repair (at cycle 2+3=5) must not have fired...
  EXPECT_FALSE(repaired_early);
  // ...and the coupled repair (applied at 1, due at 11) must have.
  EXPECT_TRUE(map.active({4, 4}));
  EXPECT_EQ(inj.log().node_failures, 1);
  EXPECT_EQ(inj.log().node_repairs, 1);
  EXPECT_EQ(inj.log().events_rejected, 1);
}

TEST(FaultInjector, BoundsRetryBudget) {
  const Mesh m(8, 8);
  FaultMap map(m);
  FRingSet rings(map);
  using ftmesh::inject::FaultInjector;
  using ftmesh::inject::InjectConfig;
  EXPECT_NO_THROW(FaultInjector({}, map, rings, InjectConfig{64, 64}));
  for (const int retries : {65, 100}) {
    EXPECT_THROW(FaultInjector({}, map, rings, InjectConfig{retries, 64}),
                 std::invalid_argument)
        << retries;
  }
}

TEST(FaultInjector, CountsLinkEventsSeparately) {
  const Mesh m(8, 8);
  FaultMap map(m);
  FRingSet rings(map);
  auto algo = ftmesh::routing::make_algorithm("Minimal-Adaptive", m, map, rings);
  ftmesh::router::Network net(m, map, *algo, {}, Rng(7));

  FaultSchedule sched;
  sched.add(0, FaultEvent{FaultEventKind::FailLink, {3, 3},
                          ftmesh::topology::Direction::XPlus, 4.0});
  sched.add(0, FaultEvent{FaultEventKind::Fail, {6, 6}});
  ftmesh::inject::FaultInjector inj(std::move(sched), map, rings, {});
  for (int cycle = 0; cycle < 8; ++cycle) {
    inj.tick(net);
    net.step();
  }
  EXPECT_EQ(inj.log().link_failures, 1);
  EXPECT_EQ(inj.log().link_repairs, 1);
  EXPECT_EQ(inj.log().node_failures, 1);
  EXPECT_EQ(inj.log().node_repairs, 0);
  EXPECT_TRUE(map.link_alive({3, 3}, ftmesh::topology::Direction::XPlus));
  EXPECT_TRUE(map.blocked({6, 6}));
}

TEST(FaultInjector, StaleRetransmissionSkipsTheSlotsNextOccupant) {
  // A purged message waits out its backoff; its destination dies in the
  // meantime, so the recovery pass aborts it and frees its slot; the next
  // creation takes that slot.  When the stale retransmission comes due it
  // must be skipped: requeueing the slot's new occupant would inject that
  // worm twice.
  const Mesh m(8, 8);
  FaultMap map(m);
  FRingSet rings(map);
  auto algo = ftmesh::routing::make_algorithm("Minimal-Adaptive", m, map, rings);
  ftmesh::router::Network net(m, map, *algo, {}, Rng(7));
  const auto step = [&](ftmesh::inject::FaultInjector& inj) {
    if (inj.tick(net)) {
      net.revalidate_ring_state(rings);
      net.on_fault_change();
      algo->on_fault_change();
    }
    net.step();
    ASSERT_NO_THROW(net.audit_invariants(2)) << "cycle " << net.cycle();
  };

  FaultSchedule sched;
  sched.add(6, FaultEvent{FaultEventKind::Fail, {2, 2}});   // on a's path
  sched.add(20, FaultEvent{FaultEventKind::Fail, {5, 2}});  // a's destination
  ftmesh::inject::FaultInjector inj(std::move(sched), map, rings,
                                    {/*max_retries=*/3, /*retry_backoff=*/64});

  // a's only minimal path runs along row 2 through (2,2).
  const auto a = net.create_message({1, 2}, {5, 2}, 32);
  while (net.cycle() < 7) step(inj);
  ASSERT_EQ(inj.log().retransmissions, 1u);  // purged, due at cycle 70
  ASSERT_FALSE(net.message_finished(a));
  while (net.cycle() < 21) step(inj);
  ASSERT_EQ(inj.log().events_applied, 2);
  ASSERT_TRUE(net.message_finished(a));  // endpoint lost: aborted
  ASSERT_EQ(inj.log().aborts, 1u);
  ASSERT_FALSE(inj.quiescent());  // the stale entry is still pending

  // b takes a's recycled slot and is still in flight at cycle 70.
  const auto b = net.create_message({0, 7}, {7, 7}, 200);
  ASSERT_EQ(net.message_slots(), 1u);
  while (net.cycle() < 72) step(inj);
  EXPECT_TRUE(inj.quiescent());  // the stale entry popped...
  ASSERT_FALSE(net.message_finished(b));
  EXPECT_EQ(net.message(b).retries, 0);  // ...and was skipped
  EXPECT_EQ(net.source_queue_length({0, 7}), 0u);
  EXPECT_EQ(inj.log().retransmissions, 1u);
  EXPECT_EQ(inj.log().aborts, 1u);

  // b is delivered exactly once: a second copy of its worm would have
  // left flits behind after the tail.
  while (!net.message_finished(b) && net.cycle() < 600) step(inj);
  ASSERT_TRUE(net.message_finished(b));
  for (int i = 0; i < 20; ++i) step(inj);
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(net.retired().size(), 2u);
  EXPECT_FALSE(net.retired_record(b)->aborted);
}

// A worm's tail crosses the link (3,2) -> (4,2) in cycle t, so nothing of
// the worm is left at (3,2): no flit, no reservation.  The fault tick
// before cycle t+1 then kills that link, or (3,2) itself.  The flit in
// flight is the only thing that ties the worm to the fault, and the
// recovery must still flush it, restore the credit it took, and resend
// the message over the detour.
void flush_tail_in_flight(const FaultEvent& ev) {
  const Mesh m(8, 8);
  FaultMap map(m);
  FRingSet rings(map);
  Reconfigurator rc(map, rings);
  auto algo = ftmesh::routing::make_algorithm("Nbc", m, map, rings);
  ftmesh::router::Network net(m, map, *algo, {}, Rng(3));
  const Coord upstream{3, 2};
  const int east =
      ftmesh::topology::port_index(ftmesh::topology::Direction::XPlus);
  const auto holds_east = [&] {
    for (int vc = 0; vc < algo->layout().total(); ++vc) {
      if (net.router_at(upstream).output(east, vc).allocated) return true;
    }
    return false;
  };
  const auto step = [&] {
    net.step();
    ASSERT_NO_THROW(net.audit_invariants(2)) << "cycle " << net.cycle();
  };

  // Along row 2 every minimal route runs east through (3,2).
  const auto id = net.create_message({1, 2}, {6, 2}, 4);
  while (!holds_east() && net.cycle() < 20) step();
  ASSERT_TRUE(holds_east());
  while (holds_east() && net.cycle() < 40) step();
  ASSERT_FALSE(holds_east());  // the tail crossed in the last cycle
  ASSERT_FALSE(net.message_finished(id));

  // The fault tick, as the injector runs it: reconfigure, collect, purge.
  ASSERT_TRUE(rc.apply(ev).applied);
  const auto victims = net.collect_fault_victims();
  ASSERT_EQ(victims.slots.size(), 1u);
  EXPECT_EQ(victims.flushed, 1u);
  const auto slot = victims.slots.front();
  ASSERT_EQ(net.slot_message(slot).id, id);
  net.purge_messages(victims.slots);
  net.revalidate_ring_state(rings);
  net.on_fault_change();
  algo->on_fault_change();
  ASSERT_NO_THROW(net.audit_invariants(2));  // the credit came back
  EXPECT_EQ(net.flits_in_network(), 0u);

  // Retransmission from the source, over the detour.
  net.slot_message_mut(slot).retries++;
  net.requeue_message(id);
  while (!net.message_finished(id) && net.cycle() < 400) step();
  ASSERT_TRUE(net.message_finished(id));
  const auto* record = net.retired_record(id);
  ASSERT_NE(record, nullptr);
  EXPECT_FALSE(record->aborted);
  EXPECT_EQ(record->retries, 1);

  ftmesh::inject::InjectLog log;
  log.retransmissions = 1;
  log.messages_flushed = victims.flushed;
  const auto rel = ftmesh::stats::summarize_reliability(net, log);
  EXPECT_EQ(rel.generated, net.messages_created());
  EXPECT_EQ(rel.generated, rel.delivered + rel.aborted + rel.in_flight_end);
  EXPECT_EQ(rel.delivered, 1u);
  EXPECT_EQ(rel.in_flight_end, 0u);
  EXPECT_EQ(rel.recovered_messages, 1u);
  EXPECT_TRUE(net.drained());
}

TEST(FaultRecovery, TailInFlightOverAKilledLinkIsFlushedAndResent) {
  flush_tail_in_flight(FaultEvent{FaultEventKind::FailLink, {3, 2},
                                  ftmesh::topology::Direction::XPlus});
}

TEST(FaultRecovery, TailInFlightFromAKilledNodeIsFlushedAndResent) {
  flush_tail_in_flight(FaultEvent{FaultEventKind::Fail, {3, 2}});
}

// ----------------------------------- verifier satellite: post-event safety

TEST(PostEventVerification, AllAlgorithmsStayDeadlockFreeAfterEvents) {
  const Mesh m(8, 8);
  FaultMap map(m);
  FRingSet rings(map);
  Reconfigurator rc(map, rings);
  // Drive a fail/repair history, then verify the *resulting* map.
  for (const FaultEvent ev : {FaultEvent{FaultEventKind::Fail, {3, 3}},
                              FaultEvent{FaultEventKind::Fail, {4, 3}},
                              FaultEvent{FaultEventKind::Fail, {6, 6}},
                              FaultEvent{FaultEventKind::Repair, {3, 3}}}) {
    const auto out = rc.apply(ev);
    ASSERT_TRUE(out.applied) << out.reason;
  }
  ASSERT_GT(map.faulty_count(), 0);
  for (const auto& name : ftmesh::routing::algorithm_names()) {
    const auto algo =
        ftmesh::routing::make_algorithm(name, m, map, rings, {});
    const auto report = ftmesh::verify::verify_algorithm(*algo, m, map);
    std::ostringstream os;
    ftmesh::verify::print_report(os, report, m);
    EXPECT_TRUE(report.ok()) << name << "\n" << os.str();
  }
}

// -------------------------------------------------- end-to-end simulation

SimConfig dynamic_config() {
  SimConfig cfg;
  cfg.width = cfg.height = 10;
  cfg.injection_rate = 0.002;
  cfg.message_length = 20;
  cfg.warmup_cycles = 500;
  cfg.total_cycles = 4000;
  cfg.seed = 21;
  cfg.fault_schedule = "fail@1500:4,4; fail@2000:5,4; repair@3000:4,4";
  return cfg;
}

TEST(SimConfigDynamic, ValidatesScheduleSpec) {
  auto cfg = dynamic_config();
  EXPECT_NO_THROW(cfg.validate());
  cfg.fault_schedule = "fail@100:42,1";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = dynamic_config();
  cfg.fault_max_retries = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // The backoff shift stays inside 64 bits up to a budget of 64.
  cfg.fault_max_retries = 64;
  EXPECT_NO_THROW(cfg.validate());
  for (const int retries : {65, 100}) {
    cfg.fault_max_retries = retries;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << retries;
  }
  cfg = dynamic_config();
  cfg.fault_retry_backoff = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(DynamicRun, EveryMessageDeliveredOrAccountedAborted) {
  Simulator sim(dynamic_config());
  ASSERT_NE(sim.injector(), nullptr);
  const auto r0 = sim.run();
  EXPECT_FALSE(r0.deadlock);
  sim.drain();
  const auto r = sim.snapshot();
  ASSERT_TRUE(r.reliability.enabled);
  EXPECT_EQ(r.reliability.fault_events_applied, 3);
  EXPECT_EQ(r.reliability.node_failures, 2);
  EXPECT_EQ(r.reliability.node_repairs, 1);
  // The fault landed mid-traffic: something must have been flushed and
  // recovered.
  EXPECT_GT(r.reliability.generated, 0u);
  // Accounting identity: after the drain nothing is in flight.
  EXPECT_EQ(r.reliability.in_flight_end, 0u);
  EXPECT_EQ(r.reliability.generated,
            r.reliability.delivered + r.reliability.aborted);
  // Faults hit a live mesh interior, so the recovery path actually ran.
  EXPECT_GT(r.reliability.messages_flushed, 0u);
  EXPECT_GE(r.reliability.retransmissions + r.reliability.aborted, 1u);
}

TEST(DynamicRun, WatchdogIsResetOnReconfiguration) {
  // A tight patience that would trip across the run if reconfiguration
  // didn't reset the idle streak; with resets the run completes clean.
  auto cfg = dynamic_config();
  cfg.watchdog_patience = 1200;
  Simulator sim(cfg);
  const auto r = sim.run();
  EXPECT_FALSE(r.deadlock);
}

TEST(DynamicRun, RandomScheduleAllAlgorithmsSurvive) {
  for (const auto& name : ftmesh::routing::algorithm_names()) {
    SimConfig cfg = dynamic_config();
    cfg.algorithm = name;
    cfg.total_cycles = 3000;
    cfg.fault_schedule = "random:count=3,rate=0.002,start=800";
    Simulator sim(cfg);
    sim.run();
    sim.drain();
    const auto r = sim.snapshot();
    EXPECT_FALSE(r.deadlock) << name;
    ASSERT_TRUE(r.reliability.enabled) << name;
    EXPECT_EQ(r.reliability.in_flight_end, 0u) << name;
    EXPECT_EQ(r.reliability.generated,
              r.reliability.delivered + r.reliability.aborted)
        << name;
  }
}

TEST(DynamicRun, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    auto cfg = dynamic_config();
    cfg.seed = seed;
    cfg.fault_schedule = "random:count=4,rate=0.003,start=800";
    Simulator sim(cfg);
    sim.run();
    sim.drain();
    const auto r = sim.snapshot();
    return std::tuple{r.reliability.generated, r.reliability.delivered,
                      r.reliability.aborted, r.reliability.retransmissions,
                      r.reliability.node_failures};
  };
  EXPECT_EQ(run(31), run(31));
}

TEST(DynamicRun, TransientLinkFaultFailsRecoversAndRepairs) {
  // End-to-end transient link fault: the channel dies mid-traffic, crossing
  // worms are flushed and retransmitted over the f-ring detour, then the
  // link repairs and the network re-routes minimally again.
  auto cfg = dynamic_config();
  cfg.injection_rate = 0.005;
  cfg.fault_schedule = "fail-link@1500:4,4,E; repair-link@3000:4,4,E";
  Simulator sim(cfg);
  ASSERT_NE(sim.injector(), nullptr);
  const auto r0 = sim.run();
  EXPECT_FALSE(r0.deadlock);
  sim.drain();
  const auto r = sim.snapshot();
  ASSERT_TRUE(r.reliability.enabled);
  EXPECT_EQ(r.reliability.fault_events_applied, 2);
  EXPECT_EQ(r.reliability.link_failures, 1);
  EXPECT_EQ(r.reliability.link_repairs, 1);
  EXPECT_EQ(r.reliability.node_failures, 0);
  // Both routers stayed up the whole run; only channel traffic was hit.
  EXPECT_EQ(r.reliability.in_flight_end, 0u);
  EXPECT_EQ(r.reliability.generated,
            r.reliability.delivered + r.reliability.aborted);
  // The link is healthy again at the end.
  EXPECT_TRUE(sim.faults().link_alive({4, 4},
                                      ftmesh::topology::Direction::XPlus));
  EXPECT_EQ(sim.faults().dead_link_count(), 0);
}

TEST(DynamicRun, RandomLinkScheduleAllAlgorithmsSurvive) {
  for (const auto& name : ftmesh::routing::algorithm_names()) {
    SimConfig cfg = dynamic_config();
    cfg.algorithm = name;
    cfg.total_cycles = 3000;
    cfg.fault_schedule =
        "random-link:count=2,rate=0.002,start=800,repair_after=600";
    Simulator sim(cfg);
    sim.run();
    sim.drain();
    const auto r = sim.snapshot();
    EXPECT_FALSE(r.deadlock) << name;
    ASSERT_TRUE(r.reliability.enabled) << name;
    EXPECT_EQ(r.reliability.in_flight_end, 0u) << name;
    EXPECT_EQ(r.reliability.generated,
              r.reliability.delivered + r.reliability.aborted)
        << name;
    // Repairs couple to applied failures; ones falling past the drain
    // horizon simply never execute.
    EXPECT_LE(r.reliability.link_repairs, r.reliability.link_failures)
        << name;
    EXPECT_EQ(r.reliability.node_failures, 0) << name;
  }
}

TEST(DynamicRun, RetryBudgetBoundsRetransmissions) {
  auto cfg = dynamic_config();
  cfg.fault_max_retries = 0;  // every victim aborts immediately
  Simulator sim(cfg);
  sim.run();
  sim.drain();
  const auto r = sim.snapshot();
  EXPECT_EQ(r.reliability.retransmissions, 0u);
  EXPECT_EQ(r.reliability.aborted + r.reliability.delivered,
            r.reliability.generated);
}

// Counts into `count` the flits ejected at a node other than their
// message's destination; the hook runs before an ejected tail's slot
// retires, so the slot's header is still the message's.
void count_misdeliveries(Simulator& sim, std::uint64_t& count) {
  auto& net = sim.network();
  net.set_eject_hook([&count, &net](const ftmesh::router::Flit& f, Coord at) {
    if (net.headers()[f.msg].dst != at) ++count;
  });
}

// Regression: the purge kept a purged worm's claim on an empty input VC
// routed to the ejection port (the Local output VC it named is never
// reserved, so no owner could be checked), and the next worm arriving on
// that VC was ejected there and counted delivered: 80 flits here, message
// 425 ejected at (4,7) instead of (1,8).
TEST(DynamicRun, PurgeNeverEjectsAFlitAwayFromItsDestination) {
  SimConfig cfg;
  cfg.algorithm = "Duato";
  cfg.width = cfg.height = 10;
  cfg.injection_rate = 0.005;
  cfg.message_length = 20;
  cfg.total_cycles = 2000;
  cfg.warmup_cycles = 400;
  cfg.seed = 1;
  cfg.fault_schedule = "fail@600:4,4; fail@900:5,5; repair@1400:4,4";
  Simulator sim(cfg);
  std::uint64_t misdelivered = 0;
  count_misdeliveries(sim, misdelivered);
  sim.run();
  sim.drain();
  const auto r = sim.snapshot();
  EXPECT_EQ(misdelivered, 0u);
  ASSERT_TRUE(r.reliability.enabled);
  EXPECT_GT(r.reliability.messages_flushed, 0u);
  EXPECT_EQ(r.reliability.in_flight_end, 0u);
  EXPECT_EQ(r.reliability.generated,
            r.reliability.delivered + r.reliability.aborted);
}

// The same check over every dynamic-fault case of the golden corpus: all
// algorithms on the dynamic node schedule and the transient link cycle,
// and Duato on the dynamic schedule at 8 and 32 VCs.
TEST(DynamicRun, GoldenDynamicScenariosEjectOnlyAtTheDestination) {
  std::vector<std::pair<std::string, SimConfig>> cases;
  for (const auto& algo : ftmesh::routing::algorithm_names()) {
    for (const auto& sc : ftmesh::golden::kScenarios) {
      if (std::string(sc.name) != "dynamic-schedule" &&
          std::string(sc.name) != "transient-link") {
        continue;
      }
      auto cfg = ftmesh::golden::base_config(algo);
      sc.apply(cfg);
      cases.emplace_back(algo + "/" + sc.name, cfg);
    }
  }
  for (const int vcs : {8, 32}) {
    auto cfg = ftmesh::golden::base_config("Duato");
    cfg.total_vcs = vcs;
    ftmesh::golden::kScenarios[2].apply(cfg);  // dynamic-schedule
    cases.emplace_back("Duato/dynamic-schedule/vcs" + std::to_string(vcs),
                       cfg);
  }
  ASSERT_EQ(cases.size(), 24u);
  for (const auto& [name, cfg] : cases) {
    Simulator sim(cfg);
    std::uint64_t misdelivered = 0;
    count_misdeliveries(sim, misdelivered);
    sim.run();
    sim.drain();
    const auto r = sim.snapshot();
    EXPECT_EQ(misdelivered, 0u) << name;
    ASSERT_TRUE(r.reliability.enabled) << name;
    EXPECT_EQ(r.reliability.in_flight_end, 0u) << name;
    EXPECT_EQ(r.reliability.generated,
              r.reliability.delivered + r.reliability.aborted)
        << name;
  }
}

}  // namespace
