// Router-pipeline tests: wormhole invariants, credits, delivery, drain.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "ftmesh/router/network.hpp"
#include "ftmesh/routing/registry.hpp"
#include "ftmesh/routing/vc_layout.hpp"
#include "ftmesh/routing/xy.hpp"
#include "ftmesh/verify/broken_demo.hpp"
#include "ftmesh/verify/wait_cycle.hpp"

namespace {

using ftmesh::fault::FaultMap;
using ftmesh::fault::FRingSet;
using ftmesh::router::Flit;
using ftmesh::router::FlitType;
using ftmesh::router::IvcStage;
using ftmesh::router::MessageId;
using ftmesh::router::Network;
using ftmesh::router::NetworkConfig;
using ftmesh::router::RetiredMessage;
using ftmesh::sim::Rng;
using ftmesh::topology::Coord;
using ftmesh::topology::Direction;
using ftmesh::topology::Mesh;
using ftmesh::topology::port_index;

/// True when every message ever created has been delivered.
bool all_delivered(const Network& net) {
  if (net.retired().size() != net.messages_created()) return false;
  return std::none_of(net.retired().begin(), net.retired().end(),
                      [](const RetiredMessage& r) { return r.aborted; });
}

struct NetFixture {
  Mesh mesh{10, 10};
  FaultMap faults{mesh};
  FRingSet rings{faults};
  std::unique_ptr<ftmesh::routing::RoutingAlgorithm> algo;
  std::unique_ptr<Network> net;

  explicit NetFixture(const std::string& name = "Minimal-Adaptive",
                      NetworkConfig cfg = {}) {
    algo = ftmesh::routing::make_algorithm(name, mesh, faults, rings);
    net = std::make_unique<Network>(mesh, faults, *algo, cfg, Rng(7));
  }

  /// Steps until `id` retires or `cycles` pass; its retirement record, or
  /// nullptr while it is still in flight.
  const RetiredMessage* deliver(MessageId id, int cycles) {
    for (int i = 0; i < cycles && !net->message_finished(id); ++i) net->step();
    return net->retired_record(id);
  }
};

TEST(Network, SingleMessageIsDelivered) {
  NetFixture f;
  const auto id = f.net->create_message({0, 0}, {5, 5}, 20);
  const RetiredMessage* m = f.deliver(id, 300);
  ASSERT_NE(m, nullptr);
  EXPECT_FALSE(m->aborted);
  EXPECT_EQ(m->hops, 10);  // minimal path, no contention
  EXPECT_EQ(m->misroutes, 0);
  // Zero-load latency: hops + length - 1 (the first flit moves in its
  // creation cycle) plus small pipeline overheads.
  EXPECT_GE(m->delivered - m->created, 10u + 20u - 1u);
  EXPECT_LE(m->delivered - m->created, 10u + 20u + 8u);
}

TEST(Network, ZeroLoadLatencyIsDistancePlusSerialization) {
  NetFixture f;
  const auto id = f.net->create_message({2, 3}, {7, 3}, 50);
  const RetiredMessage* m = f.deliver(id, 300);
  ASSERT_NE(m, nullptr);
  const auto latency = m->delivered - m->created;
  EXPECT_NEAR(static_cast<double>(latency), 5 + 50, 6.0);
}

TEST(Network, SingleFlitMessage) {
  NetFixture f;
  const auto id = f.net->create_message({0, 0}, {1, 0}, 1);
  EXPECT_NE(f.deliver(id, 50), nullptr);
}

TEST(Network, MessageToSameRowAndColumn) {
  NetFixture f;
  const auto a = f.net->create_message({0, 5}, {9, 5}, 10);
  const auto b = f.net->create_message({5, 0}, {5, 9}, 10);
  for (int i = 0; i < 200; ++i) f.net->step();
  EXPECT_TRUE(f.net->message_finished(a));
  EXPECT_TRUE(f.net->message_finished(b));
  EXPECT_TRUE(all_delivered(*f.net));
}

TEST(Network, FlitsArriveInOrderWithoutInterleaving) {
  NetFixture f;
  // Wormhole ordering invariant: each message's flits arrive at its
  // destination in strict seq order, none lost or duplicated.  (Flits of
  // *different* messages may interleave at a node: ejection serves several
  // input VCs.)
  std::map<ftmesh::router::MessageId, std::uint32_t> next_seq;
  std::map<ftmesh::router::MessageId, int> eject_node;
  bool violated = false;
  f.net->set_eject_hook([&](const Flit& flit, Coord at) {
    // Flits carry the message's slot; the hook runs before the tail's slot
    // recycles, so the slot still names the message.
    const MessageId id = f.net->slot_message(flit.msg).id;
    if (flit.seq != next_seq[id]) violated = true;
    ++next_seq[id];
    const int node = f.mesh.id_of(at);
    auto [it, fresh] = eject_node.emplace(id, node);
    if (!fresh && it->second != node) violated = true;  // split delivery
  });
  // Many concurrent messages to the same destination.
  for (int i = 0; i < 8; ++i) {
    f.net->create_message({i, 0}, {9, 9}, 12);
    f.net->create_message({0, i + 1}, {9, 9}, 12);
  }
  for (int i = 0; i < 1500; ++i) f.net->step();
  EXPECT_FALSE(violated);
  EXPECT_TRUE(all_delivered(*f.net));
}

TEST(Network, DrainsCompletely) {
  NetFixture f;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const Coord src{static_cast<int>(rng.next_below(10)),
                    static_cast<int>(rng.next_below(10))};
    const Coord dst{static_cast<int>(rng.next_below(10)),
                    static_cast<int>(rng.next_below(10))};
    if (src == dst) continue;
    f.net->create_message(src, dst, 8);
  }
  for (int i = 0; i < 5000; ++i) {
    f.net->step();
    if (i > 10 && f.net->flits_in_network() == 0) break;
  }
  // After drain: no flits anywhere, every message done, all VCs released.
  EXPECT_EQ(f.net->flits_in_network(), 0u);
  EXPECT_TRUE(all_delivered(*f.net));
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) {
      const auto& rt = f.net->router_at({x, y});
      for (int port = 0; port < ftmesh::topology::kMeshDirections; ++port) {
        for (int vc = 0; vc < rt.vcs(); ++vc) {
          EXPECT_FALSE(rt.output(port, vc).allocated);
          EXPECT_EQ(rt.output(port, vc).credits, f.net->config().buffer_depth);
        }
      }
    }
  }
}

TEST(Network, DeterministicAcrossRuns) {
  auto run = [] {
    NetFixture f;
    Rng rng(99);
    for (int c = 0; c < 400; ++c) {
      if (c % 3 == 0) {
        const Coord src{static_cast<int>(rng.next_below(10)),
                        static_cast<int>(rng.next_below(10))};
        Coord dst{static_cast<int>(rng.next_below(10)),
                  static_cast<int>(rng.next_below(10))};
        if (!(src == dst)) f.net->create_message(src, dst, 16);
      }
      f.net->step();
    }
    std::vector<std::pair<MessageId, std::uint64_t>> stamps;
    for (const auto& r : f.net->retired()) stamps.emplace_back(r.id, r.delivered);
    return stamps;
  };
  EXPECT_EQ(run(), run());
}

TEST(Network, MeasurementWindowCountsOnlyAfterBegin) {
  NetFixture f;
  f.net->create_message({0, 0}, {3, 0}, 10);
  for (int i = 0; i < 60; ++i) f.net->step();
  EXPECT_EQ(f.net->measured_flits_delivered(), 0u);
  f.net->begin_measurement();
  const auto id = f.net->create_message({0, 0}, {3, 0}, 10);
  for (int i = 0; i < 60; ++i) f.net->step();
  EXPECT_TRUE(f.net->message_finished(id));
  EXPECT_EQ(f.net->measured_flits_delivered(), 10u);
  EXPECT_EQ(f.net->measured_messages_delivered(), 1u);
  EXPECT_EQ(f.net->measured_flits_generated(), 10u);
}

TEST(Network, WindowIsGrowthPastTheWarmupSnapshot) {
  // The kernel counts from cycle 0; begin_measurement() only snapshots, and
  // every window accessor reads the growth past the snapshot.
  NetworkConfig cfg;
  cfg.collect_vc_usage = true;
  cfg.collect_traffic_map = true;
  cfg.collect_kernel_stats = true;
  NetFixture f("Minimal-Adaptive", cfg);
  f.net->create_message({0, 0}, {4, 0}, 10);
  for (int i = 0; i < 60; ++i) f.net->step();
  const auto warm = f.net->counters();
  EXPECT_EQ(warm.messages_delivered, 1u);
  EXPECT_EQ(warm.vc_usage_samples, 60u);
  EXPECT_GT(warm.route_decisions, 0u);
  EXPECT_EQ(f.net->measured_cycles(), 0u);
  EXPECT_EQ(f.net->measured_route_decisions(), 0u);
  EXPECT_EQ(f.net->kernel_samples(), 0u);
  for (const auto v : f.net->node_traffic()) EXPECT_EQ(v, 0u);
  for (const auto v : f.net->vc_busy_counts()) EXPECT_EQ(v, 0u);

  f.net->begin_measurement();
  f.net->create_message({0, 0}, {4, 0}, 10);
  for (int i = 0; i < 40; ++i) f.net->step();
  const auto now = f.net->counters();
  EXPECT_EQ(now.messages_delivered, 2u);
  EXPECT_EQ(f.net->measured_cycles(), 40u);
  EXPECT_EQ(f.net->measured_messages_delivered(), 1u);
  EXPECT_EQ(f.net->vc_usage_samples(), 40u);
  EXPECT_EQ(f.net->kernel_samples(), 40u);
  EXPECT_EQ(f.net->measured_route_decisions(),
            now.route_decisions - warm.route_decisions);
  std::uint64_t traffic = 0;
  for (const auto v : f.net->node_traffic()) traffic += v;
  EXPECT_EQ(traffic, 10u * 5u);  // the second message's traversals only
}

TEST(Network, SourceQueueTracksBacklog) {
  NetFixture f;
  for (int i = 0; i < 5; ++i) f.net->create_message({0, 0}, {9, 9}, 100);
  EXPECT_EQ(f.net->source_queue_length({0, 0}), 5u);
  f.net->step();  // first message moves into the injection channel
  EXPECT_EQ(f.net->source_queue_length({0, 0}), 4u);
}

TEST(Network, InjectionVcsOutOfRangeThrows) {
  NetFixture f;
  NetworkConfig cfg;
  cfg.injection_vcs = 0;
  EXPECT_THROW(Network(f.mesh, f.faults, *f.algo, cfg, Rng(1)),
               std::invalid_argument);
}

TEST(Network, RetiredKernelSwitchesAreRejected) {
  // The full scan, the uncached routing path, append-only storage and
  // every slot allocator but the one pool were removed; their NetworkConfig
  // fields accept only the defaults.
  NetFixture f;
  NetworkConfig full;
  full.scan_mode = ftmesh::router::ScanMode::Full;
  NetworkConfig append_only;
  append_only.recycle_messages = false;
  NetworkConfig unpooled;
  unpooled.shard_alloc = false;
  NetworkConfig uncached;
  uncached.route_cache = false;
  for (const NetworkConfig& cfg : {full, append_only, unpooled, uncached}) {
    EXPECT_THROW(Network(f.mesh, f.faults, *f.algo, cfg, Rng(1)),
                 std::invalid_argument);
  }
}

TEST(Network, BufferDepthOutsideTheRingRangeIsRejected) {
  // The constructor refuses a depth the 16-bit ring indices cannot address
  // before it builds a single router.
  NetFixture f;
  for (const int depth : {0, 65536, 70000}) {
    NetworkConfig cfg;
    cfg.buffer_depth = depth;
    EXPECT_THROW(Network(f.mesh, f.faults, *f.algo, cfg, Rng(1)),
                 std::invalid_argument)
        << depth;
  }
}

TEST(Network, TwoInjectionVcsInterleaveMessagesFromOneSource) {
  NetworkConfig cfg;
  cfg.injection_vcs = 2;
  NetFixture f("Minimal-Adaptive", cfg);
  const auto a = f.net->create_message({0, 0}, {9, 0}, 60);
  const auto b = f.net->create_message({0, 0}, {0, 9}, 60);
  for (int i = 0; i < 40; ++i) f.net->step();
  // With two injection channels both messages are in flight concurrently.
  EXPECT_GT(f.net->route_state(a).hops, 0);
  EXPECT_GT(f.net->route_state(b).hops, 0);
  for (int i = 0; i < 400; ++i) f.net->step();
  EXPECT_TRUE(f.net->message_finished(a));
  EXPECT_TRUE(f.net->message_finished(b));
}

TEST(Network, VcUsageSamplingAccumulates) {
  NetworkConfig cfg;
  cfg.collect_vc_usage = true;
  NetFixture f("Minimal-Adaptive", cfg);
  f.net->begin_measurement();
  f.net->create_message({0, 0}, {9, 9}, 40);
  for (int i = 0; i < 100; ++i) f.net->step();
  EXPECT_EQ(f.net->vc_usage_samples(), 100u);
  std::uint64_t total = 0;
  for (const auto v : f.net->vc_busy_counts()) total += v;
  EXPECT_GT(total, 0u);
}

TEST(Network, TrafficMapCountsTraversals) {
  NetworkConfig cfg;
  cfg.collect_traffic_map = true;
  NetFixture f("Minimal-Adaptive", cfg);
  f.net->begin_measurement();
  const auto id = f.net->create_message({0, 0}, {4, 0}, 10);
  for (int i = 0; i < 100; ++i) f.net->step();
  ASSERT_TRUE(f.net->message_finished(id));
  // Every node on the path saw all 10 flits cross its switch.
  std::uint64_t total = 0;
  for (const auto v : f.net->node_traffic()) total += v;
  EXPECT_EQ(total, 10u * 5u);  // 5 switch traversals per flit (src..dst)
}

TEST(Network, DepthOneBuffersStillStreamCorrectly) {
  // Minimum buffering: the credit loop is tightest, throughput drops, but
  // correctness (delivery, ordering) must hold.
  NetworkConfig cfg;
  cfg.buffer_depth = 1;
  NetFixture f("Minimal-Adaptive", cfg);
  std::map<ftmesh::router::MessageId, std::uint32_t> next_seq;
  bool violated = false;
  f.net->set_eject_hook([&](const Flit& flit, Coord) {
    const MessageId id = f.net->slot_message(flit.msg).id;
    if (flit.seq != next_seq[id]) violated = true;
    ++next_seq[id];
  });
  for (int i = 0; i < 10; ++i) f.net->create_message({i % 10, 0}, {9, 9}, 30);
  for (int i = 0; i < 4000; ++i) f.net->step();
  EXPECT_FALSE(violated);
  EXPECT_TRUE(all_delivered(*f.net));
}

TEST(Network, VeryLongMessageSpansTheWholePath) {
  // 400 flits over a 9-hop path: the worm occupies every buffer on the
  // route at once and must still deliver in order.
  NetFixture f;
  const auto id = f.net->create_message({0, 0}, {9, 8}, 400);
  const RetiredMessage* m = f.deliver(id, 1000);
  ASSERT_NE(m, nullptr);
  EXPECT_NEAR(static_cast<double>(m->delivered - m->created), 17 + 400, 10.0);
}

TEST(Network, RectangularMeshWorks) {
  const Mesh mesh(12, 4);
  const FaultMap faults(mesh);
  const FRingSet rings(faults);
  const auto algo =
      ftmesh::routing::make_algorithm("Nbc", mesh, faults, rings);
  Network net(mesh, faults, *algo, NetworkConfig{}, Rng(5));
  const auto a = net.create_message({0, 0}, {11, 3}, 10);
  const auto b = net.create_message({11, 0}, {0, 3}, 10);
  for (int i = 0; i < 300; ++i) net.step();
  EXPECT_TRUE(all_delivered(net));
  ASSERT_NE(net.retired_record(a), nullptr);
  EXPECT_NE(net.retired_record(b), nullptr);
  EXPECT_EQ(net.retired_record(a)->hops, 14);
}

TEST(Network, AdaptivityCountersAccumulateWhileMeasuring) {
  NetFixture f;
  f.net->create_message({0, 0}, {5, 5}, 10);
  for (int i = 0; i < 60; ++i) f.net->step();
  EXPECT_EQ(f.net->measured_route_decisions(), 0u);  // not measuring yet
  f.net->begin_measurement();
  f.net->create_message({0, 0}, {5, 5}, 10);
  for (int i = 0; i < 60; ++i) f.net->step();
  EXPECT_GT(f.net->measured_route_decisions(), 0u);
  EXPECT_GE(f.net->measured_candidates_offered(),
            f.net->measured_candidates_free());
  EXPECT_GT(f.net->measured_candidates_free(), 0u);
}

TEST(Network, NoWaitCycleOnHealthyTraffic) {
  NetFixture f;
  for (int i = 0; i < 20; ++i) f.net->create_message({i % 10, 1}, {9, 8}, 20);
  for (int i = 0; i < 300; ++i) f.net->step();
  EXPECT_TRUE(ftmesh::verify::find_wait_cycle(*f.net).empty());
}

TEST(Network, NoWaitCycleAtSaturationWithFaults) {
  const Mesh mesh(10, 10);
  ftmesh::sim::Rng frng(13);
  const auto faults = FaultMap::random(mesh, 10, frng);
  const FRingSet rings(faults);
  const auto algo = ftmesh::routing::make_algorithm("PHop", mesh, faults, rings);
  Network net(mesh, faults, *algo, {}, Rng(5));
  ftmesh::sim::Rng rng(3);
  const auto active = faults.active_nodes();
  for (int c = 0; c < 1500; ++c) {
    if (c % 2 == 0) {
      const auto src = active[rng.next_below(active.size())];
      const auto dst = active[rng.next_below(active.size())];
      if (!(src == dst)) net.create_message(src, dst, 30);
    }
    net.step();
    if (c % 250 == 0) {
      EXPECT_TRUE(ftmesh::verify::find_wait_cycle(net).empty()) << c;
    }
  }
}

/// True when live message `a`'s header waits, unrouted at a buffer front,
/// for a channel that live message `b` holds at the same router.
bool waits_on(const Network& net, MessageId a, MessageId b) {
  const auto slot_of = [&](MessageId id) {
    for (std::size_t s = 0; s < net.messages().size(); ++s) {
      if (net.messages()[s].id == id) return s;
    }
    return net.messages().size();
  };
  const std::size_t sa = slot_of(a);
  const std::size_t sb = slot_of(b);
  const auto& algo = net.algorithm();
  ftmesh::routing::CandidateList cand;
  for (int id = 0; id < net.mesh().node_count(); ++id) {
    const Coord c = net.mesh().coord_of(id);
    const auto& rt = net.router_at(c);
    for (int port = 0; port < ftmesh::topology::kPortCount; ++port) {
      for (int vc = 0; vc < algo.layout().total(); ++vc) {
        const auto& ivc = rt.input(port, vc);
        if (ivc.buf.empty() || ivc.buf.front().msg != sa ||
            net.input_route(c, port, vc).active()) {
          continue;
        }
        cand.clear();
        algo.enumerate(c, net.headers()[sa], cand);
        for (std::size_t i = 0; i < cand.size(); ++i) {
          const auto& ovc = rt.output(port_index(cand[i].dir), cand[i].vc);
          if (ovc.allocated && ovc.owner == sb) return true;
        }
      }
    }
  }
  return false;
}

// The broken demo's deadlock (verify/broken_demo.hpp): four worms, each
// from a corner of a unit square to the opposite corner on one VC.  When
// every first hop turns the same way round the square, each worm holds
// the channel the next one needs and the wait-for graph closes a cycle of
// all four; any other choice drains.  The first hops are random draws, so
// the test tries seeds until both outcomes have been seen.
TEST(Network, WaitCycleNamesTheBrokenDemoDeadlock) {
  const Mesh mesh(2, 2);
  const FaultMap faults(mesh);
  const ftmesh::verify::BrokenDemoRouting algo(mesh, faults);
  const Coord corners[] = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  int deadlocked = 0;
  int drained = 0;
  for (std::uint64_t seed = 1; seed <= 64 && (deadlocked < 2 || drained < 2);
       ++seed) {
    Network net(mesh, faults, algo, NetworkConfig{}, Rng(seed));
    for (int k = 0; k < 4; ++k) {
      net.create_message(corners[k], corners[(k + 2) % 4], 8);
    }
    for (int i = 0; i < 100; ++i) net.step();
    const auto cycle = ftmesh::verify::find_wait_cycle(net);
    if (cycle.empty()) {
      EXPECT_TRUE(all_delivered(net)) << "seed " << seed;
      ++drained;
      continue;
    }
    EXPECT_FALSE(net.drained()) << "seed " << seed;
    ASSERT_EQ(cycle.size(), 4u) << "seed " << seed;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      EXPECT_TRUE(waits_on(net, cycle[i], cycle[(i + 1) % cycle.size()]))
          << "seed " << seed << " member " << i;
    }
    ++deadlocked;
  }
  EXPECT_GE(deadlocked, 2);
  EXPECT_GE(drained, 2);
}

TEST(Network, CreditStarvedWormWaitsForItsCreditThenSends) {
  // Two worms contend for the one XY channel east out of (3,0): X, injected
  // there, takes it first; W, arriving from the west, waits at (3,0) with
  // its header unrouted and its depth-2 buffer full, so the router
  // upstream, (2,0), holds W's reserved output VC at 0 credits.  W's input
  // VC there must never be granted while the count is 0, and must be
  // granted on the cycle after the commit that returns a credit (nothing
  // else competes at (2,0)).  The level-2 audit after every step checks
  // that its credit-blocked bit is set exactly while the count is 0.
  const Mesh mesh(10, 10);
  const FaultMap faults(mesh);
  const auto layout = ftmesh::routing::VcLayout::duato(24, 0, 0, true, true);
  const ftmesh::routing::XyRouting xy(mesh, faults, layout);
  NetworkConfig cfg;
  cfg.buffer_depth = 2;
  Network net(mesh, faults, xy, cfg, Rng(7));
  const int vc = layout.xy_escape()[0];
  const Coord up{2, 0};
  const int in_port = port_index(Direction::XMinus);
  const int out_port = port_index(Direction::XPlus);
  const auto& ivc = net.router_at(up).input(in_port, vc);
  const auto& route = net.input_route(up, in_port, vc);
  const auto& ovc = net.router_at(up).output(out_port, vc);
  net.create_message({3, 0}, {9, 0}, 20);  // X
  net.create_message({0, 0}, {8, 0}, 20);  // W

  int cycle = 0;
  for (; cycle < 100; ++cycle) {
    if (route.stage == IvcStage::Active && ovc.credits == 0 &&
        ivc.buf.size() == 2) {
      break;
    }
    net.step();
    ASSERT_NO_THROW(net.audit_invariants(2));
  }
  ASSERT_LT(cycle, 100) << "W never starved at (2,0)";

  int starved_steps = 0;
  for (;; ++starved_steps) {
    ASSERT_LT(starved_steps, 100) << "the credit never came back";
    ASSERT_EQ(ovc.credits, 0);
    ASSERT_FALSE(ivc.buf.empty());
    const auto front = ivc.buf.front().seq;
    net.step();
    ASSERT_NO_THROW(net.audit_invariants(2));
    // The switch phase saw 0 credits: the front flit must not have moved.
    EXPECT_EQ(ivc.buf.front().seq, front);
    if (ovc.credits != 0) break;
  }
  EXPECT_GT(starved_steps, 5);
  // The commit of the step just taken returned the credit; the next switch
  // phase sends.
  EXPECT_EQ(ovc.credits, 1);
  const auto front = ivc.buf.front().seq;
  net.step();
  ASSERT_NO_THROW(net.audit_invariants(2));
  ASSERT_FALSE(ivc.buf.empty());
  EXPECT_EQ(ivc.buf.front().seq, front + 1);
}

/// Routes every header east along row 0 on an 80-VC layout.  Blockers
/// (bound for kBlockerDst) offer XPlus VCs 0..7 in one tier.  The probe
/// (any other destination) offers an 80-candidate list at kProbeAt: tier 0
/// is the eight blocker VCs, tier 1 holds 70 candidates in which every
/// fifth names a blocker VC again and the rest name VCs 8..77, so tier 1's
/// free candidates lie on both sides of list position 64; tier 2 names
/// VCs 78 and 79, free but never to be chosen while tier 1 has a free VC.
class WideListRouting : public ftmesh::routing::RoutingAlgorithm {
 public:
  static constexpr Coord kBlockerDst{9, 0};
  static constexpr Coord kProbeAt{1, 0};
  static constexpr int kBlockerVcs = 8;
  static constexpr int kTier1 = 70;

  WideListRouting(const Mesh& mesh, const FaultMap& faults)
      : RoutingAlgorithm(mesh, faults),
        layout_(ftmesh::routing::VcLayout::adaptive(80, false, false)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "Wide-List";
  }
  [[nodiscard]] const ftmesh::routing::VcLayout& layout()
      const noexcept override {
    return layout_;
  }
  void candidates(Coord at, const ftmesh::router::HeaderState& msg,
                  ftmesh::routing::CandidateList& out) const override {
    for (int vc = 0; vc < kBlockerVcs; ++vc) out.add(Direction::XPlus, vc);
    if (msg.dst == kBlockerDst || at != kProbeAt) return;
    out.next_tier();
    for (int k = 0; k < kTier1; ++k) {
      out.add(Direction::XPlus, k % 5 == 0 ? (k / 5) % kBlockerVcs : 8 + k);
    }
    out.next_tier();
    out.add(Direction::XPlus, 78);
    out.add(Direction::XPlus, 79);
  }
  // Lists depend on the destination, not just the route site: keep the
  // route cache node-keyed.
  [[nodiscard]] bool uniform_at(Coord) const noexcept override {
    return false;
  }

 private:
  ftmesh::routing::VcLayout layout_;
};

TEST(Network, ListsLongerThan64AllocateFromTheFirstTierWithAFreeVc) {
  const Mesh mesh(10, 2);
  const FaultMap faults(mesh);
  const WideListRouting algo(mesh, faults);
  NetworkConfig cfg;
  cfg.injection_vcs = WideListRouting::kBlockerVcs;
  Network net(mesh, faults, algo, cfg, Rng(7));
  const auto& rt = net.router_at(WideListRouting::kProbeAt);
  const int east = port_index(Direction::XPlus);

  // Eight long blockers from (0,0) take every tier-0 VC east out of (1,0)
  // and hold them while their heads eject at (9,0).
  for (int i = 0; i < WideListRouting::kBlockerVcs; ++i) {
    net.create_message({0, 0}, WideListRouting::kBlockerDst, 400);
  }
  for (int i = 0; i < 200; ++i) {
    net.step();
    ASSERT_NO_THROW(net.audit_invariants(2));
  }
  for (int vc = 0; vc < WideListRouting::kBlockerVcs; ++vc) {
    ASSERT_TRUE(rt.output(east, vc).allocated) << "blocker VC " << vc;
  }

  // Only the probe routes in the measurement window, so its one decision
  // must count exactly the free candidates of its list.
  net.begin_measurement();
  ftmesh::router::HeaderState probe;
  probe.src = WideListRouting::kProbeAt;
  probe.dst = {5, 0};
  net.create_message(probe.src, probe.dst, 4);
  ftmesh::routing::CandidateList list;
  algo.enumerate(WideListRouting::kProbeAt, probe, list);
  ASSERT_GT(list.size(), 64u);
  ASSERT_EQ(list.tier_count(), 3u);
  std::uint64_t free_now = 0;
  for (int i = 0; i < 10 && net.measured_route_decisions() == 0; ++i) {
    free_now = 0;
    for (std::size_t k = 0; k < list.size(); ++k) {
      free_now += rt.output(east, list.vc(k)).allocated ? 0 : 1;
    }
    net.step();
    ASSERT_NO_THROW(net.audit_invariants(2));
  }
  ASSERT_EQ(net.measured_route_decisions(), 1u);
  EXPECT_EQ(net.measured_candidates_offered(), list.size());
  EXPECT_EQ(free_now, 58u);  // tiers 1 and 2 minus tier 1's 14 repeats
  EXPECT_EQ(net.measured_candidates_free(), free_now);

  // The probe sits in one of (1,0)'s injection VCs with a free output VC
  // from tier 1, the first tier that had one.
  const auto [begin, end] = list.tier_range(1);
  int routed = 0;
  for (int iv = 0; iv < cfg.injection_vcs; ++iv) {
    const auto& route =
        net.input_route(WideListRouting::kProbeAt, port_index(Direction::Local), iv);
    if (route.stage != IvcStage::Active) continue;
    ++routed;
    EXPECT_EQ(route.dir(), Direction::XPlus);
    EXPECT_GE(route.vc, WideListRouting::kBlockerVcs);
    bool listed = false;
    for (std::size_t k = begin; k < end; ++k) listed |= list.vc(k) == route.vc;
    EXPECT_TRUE(listed) << "VC " << route.vc;
  }
  EXPECT_EQ(routed, 1);
}

TEST(Network, WatchdogStaysQuietOnHealthyTraffic) {
  NetFixture f;
  for (int i = 0; i < 30; ++i) {
    f.net->create_message({i % 10, (i * 3) % 10}, {(i * 7 + 1) % 10, i % 10}, 10);
  }
  for (int i = 0; i < 3000; ++i) f.net->step();
  EXPECT_FALSE(f.net->watchdog().tripped());
}

}  // namespace
