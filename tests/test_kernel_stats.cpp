// Cycle-kernel statistics: the accounting identities tying the route-cache
// and active-set counters (router/network.hpp) to the rest of the
// measurement machinery, and the guarantee that collecting them never
// changes simulation results.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "ftmesh/core/config.hpp"
#include "ftmesh/core/simulator.hpp"
#include "ftmesh/report/json.hpp"
#include "ftmesh/routing/boppana_chalasani.hpp"
#include "ftmesh/routing/boura.hpp"

namespace {

using ftmesh::core::SimConfig;
using ftmesh::core::Simulator;
using ftmesh::topology::Coord;

SimConfig kernel_config() {
  SimConfig cfg;
  cfg.algorithm = "Duato";
  cfg.width = 8;
  cfg.height = 8;
  cfg.injection_rate = 0.01;
  cfg.message_length = 16;
  cfg.warmup_cycles = 500;
  cfg.total_cycles = 2500;
  cfg.seed = 3;
  cfg.collect_kernel_stats = true;
  return cfg;
}

TEST(KernelStats, DisabledByDefault) {
  auto cfg = kernel_config();
  cfg.collect_kernel_stats = false;
  Simulator sim(cfg);
  const auto r = sim.run();
  EXPECT_FALSE(r.kernel.enabled);
}

TEST(KernelStats, CacheLookupAccountingIdentities) {
  const auto cfg = kernel_config();
  Simulator sim(cfg);
  const auto r = sim.run();
  ASSERT_TRUE(r.kernel.enabled);
  ASSERT_FALSE(r.deadlock);

  // With the cache enabled there is exactly one lookup per measured routing
  // decision (headers already at their destination never consult the
  // algorithm), so the cache and adaptivity counters must agree.
  EXPECT_EQ(r.kernel.cache_lookups, r.adaptivity.decisions);
  EXPECT_GT(r.kernel.cache_lookups, 0u);

  // hits <= lookups, and the rate is their exact quotient.
  EXPECT_LE(r.kernel.cache_hits, r.kernel.cache_lookups);
  EXPECT_DOUBLE_EQ(r.kernel.cache_hit_rate,
                   static_cast<double>(r.kernel.cache_hits) /
                       static_cast<double>(r.kernel.cache_lookups));

  // Uniform traffic revisits (node, dst, state) triples constantly; a
  // cold cache would point at a wiring bug.
  EXPECT_GT(r.kernel.cache_hits, 0u);

  // No faults ever happened, so nothing may have invalidated the cache.
  EXPECT_EQ(r.kernel.cache_invalidations, 0u);
}

TEST(KernelStats, ActiveSetMeansAreSampledAndBounded) {
  const auto cfg = kernel_config();
  Simulator sim(cfg);
  const auto r = sim.run();
  ASSERT_TRUE(r.kernel.enabled);
  ASSERT_FALSE(r.deadlock);

  // One sample per measured cycle.
  EXPECT_EQ(r.kernel.samples, cfg.total_cycles - cfg.warmup_cycles);

  // Mean set sizes are bounded by what they index: nodes for the three
  // node worklists, 4 * nodes for link registers.
  const double nodes = static_cast<double>(cfg.width * cfg.height);
  EXPECT_GE(r.kernel.mean_route_nodes, 0.0);
  EXPECT_LE(r.kernel.mean_route_nodes, nodes);
  EXPECT_GE(r.kernel.mean_switch_nodes, 0.0);
  EXPECT_LE(r.kernel.mean_switch_nodes, nodes);
  EXPECT_GE(r.kernel.mean_inject_nodes, 0.0);
  EXPECT_LE(r.kernel.mean_inject_nodes, nodes);
  EXPECT_GE(r.kernel.mean_link_regs, 0.0);
  EXPECT_LE(r.kernel.mean_link_regs, 4.0 * nodes);

  // Traffic is flowing, so the sets cannot all have been empty.
  EXPECT_GT(r.kernel.mean_switch_nodes, 0.0);
  EXPECT_GT(r.kernel.mean_link_regs, 0.0);
}

TEST(KernelStats, GaugesAndDrainMatchABruteForceCountEveryCycle) {
  // The active-set gauges popcount the node masks and drained() reads the
  // inject mask.  Both must equal a count taken straight from the routers,
  // source queues and injection supplies on every cycle of a run through
  // node and link faults, a repair, and the drain.
  SimConfig cfg = kernel_config();
  cfg.width = 10;
  cfg.height = 10;
  cfg.algorithm = "Nbc";
  cfg.injection_rate = 0.006;
  cfg.message_length = 12;
  cfg.warmup_cycles = 100;
  cfg.total_cycles = 1500;
  cfg.fault_schedule =
      "fail@300:4,4; fail-link@500:6,2,E; fail@700:5,7; repair@1000:4,4";
  Simulator sim(cfg);
  const auto& net = sim.network();

  std::uint64_t cycles = 0;
  std::uint64_t busy_inject = 0;
  bool drained_seen = false;
  const auto check = [&] {
    std::uint64_t route = 0;
    std::uint64_t sw = 0;
    std::uint64_t inject = 0;
    bool idle = net.flits_in_network() == 0;
    for (int y = 0; y < cfg.height; ++y) {
      for (int x = 0; x < cfg.width; ++x) {
        const Coord c{x, y};
        const auto& rt = net.router_at(c);
        bool routable = false;
        bool sendable = false;
        for (int port = 0; port < ftmesh::topology::kPortCount; ++port) {
          for (int vc = 0; vc < rt.vcs(); ++vc) {
            const auto& ivc = rt.input(port, vc);
            if (ivc.buf.empty()) continue;
            if (net.input_route(c, port, vc).active()) {
              sendable = true;
            } else if (ftmesh::router::is_head(ivc.buf.front().type)) {
              routable = true;
            }
          }
        }
        const bool pending =
            net.source_queue_length(c) > 0 || net.injecting(c);
        route += routable ? 1 : 0;
        sw += sendable ? 1 : 0;
        inject += pending ? 1 : 0;
        busy_inject += net.injecting(c) ? 1 : 0;
        idle = idle && !pending;
      }
    }
    ASSERT_EQ(net.active_route_nodes(), route) << "cycle " << net.cycle();
    ASSERT_EQ(net.active_switch_nodes(), sw) << "cycle " << net.cycle();
    ASSERT_EQ(net.active_inject_nodes(), inject) << "cycle " << net.cycle();
    ASSERT_EQ(net.drained(), idle) << "cycle " << net.cycle();
    drained_seen = drained_seen || idle;
    ++cycles;
  };
  while (net.cycle() < cfg.total_cycles) {
    sim.step();
    check();
    if (HasFatalFailure()) return;
  }
  while (sim.drain(1) == 1) {
    check();
    if (HasFatalFailure()) return;
  }
  ASSERT_NE(sim.injector(), nullptr);
  EXPECT_EQ(sim.injector()->log().events_applied, 4);
  EXPECT_GT(sim.injector()->log().messages_flushed, 0u);
  EXPECT_GT(busy_inject, 0u);
  EXPECT_TRUE(net.drained());
  EXPECT_TRUE(drained_seen);
  EXPECT_FALSE(net.watchdog().tripped());
}

TEST(KernelStats, FaultEventsInvalidateTheCache) {
  auto cfg = kernel_config();
  cfg.fault_schedule = "fail@800:3,3; repair@1500:3,3";
  Simulator sim(cfg);
  const auto r = sim.run();
  ASSERT_TRUE(r.kernel.enabled);
  // Both events reconfigure the fault map, and every reconfiguration must
  // flush the cache — serving a pre-fault candidate set after the map
  // changed would be unsound.
  EXPECT_EQ(r.kernel.cache_invalidations, 2u);
}

TEST(KernelStats, SiteKeysShareEntriesAcrossAFaultFreeMesh) {
  // Away from faults a header's candidates depend only on its route site
  // (neighbourhood, sign of dst - at) and route state, so the 32x32 mesh's
  // ~10^6 (node, dst) pairs fold into a few hundred entries.  A
  // count, not a timing: the run is deterministic, so the ratio repeats
  // exactly on any host.
  SimConfig cfg;
  cfg.algorithm = "Duato";
  cfg.width = 32;
  cfg.height = 32;
  cfg.total_vcs = 8;
  cfg.injection_rate = 0.01;
  cfg.message_length = 4;
  cfg.warmup_cycles = 500;
  cfg.total_cycles = 1500;
  cfg.seed = 7;
  cfg.collect_kernel_stats = true;
  Simulator sim(cfg);
  const auto r = sim.run();
  ASSERT_TRUE(r.kernel.enabled);
  ASSERT_GT(r.kernel.cache_lookups, 10000u);
  EXPECT_GE(static_cast<double>(r.kernel.cache_hits) /
                static_cast<double>(r.kernel.cache_lookups),
            0.95)
      << r.kernel.cache_hits << " hits of " << r.kernel.cache_lookups;
}

std::string report_json(const SimConfig& cfg) {
  Simulator sim(cfg);
  const auto r = sim.run();
  std::ostringstream os;
  ftmesh::report::write_result_json(os, cfg, r);
  return os.str();
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(KernelStats, NewUnsafeLabelsEndSiteSharingBesideThem) {
  // Failing (2,3) and then (4,3) gives (3,3) two faulty neighbours: Boura-
  // FT labels it unsafe, and (3,4) above it — healthy, with healthy
  // neighbours and live links — stops being uniform, because Boura-FT
  // routes around unsafe neighbours that are not the destination.  The
  // simulator notifies the network before the algorithm, so a site table
  // rebuilt at notification time would keep (3,4) site-keyed on stale
  // labels and serve candidates through (3,3) that a fresh enumeration no
  // longer offers in tier 1.  The report is pinned by its FNV-1a-64 hash,
  // taken when an uncached run (every candidate set enumerated afresh)
  // still existed and produced the same report; the level-2 audit build
  // re-enumerates every cache hit of this run as well.
  SimConfig cfg;
  cfg.algorithm = "Boura-FT";
  cfg.width = 8;
  cfg.height = 8;
  cfg.injection_rate = 0.02;
  cfg.message_length = 8;
  cfg.warmup_cycles = 200;
  cfg.total_cycles = 2000;
  cfg.seed = 5;
  cfg.fault_schedule = "fail@300:2,3; fail@500:4,3";

  const Coord beside{3, 4};
  Simulator sim(cfg);
  const auto& ft = dynamic_cast<const ftmesh::routing::Boura&>(
      dynamic_cast<const ftmesh::routing::BoppanaChalasani&>(sim.algorithm())
          .base());
  for (int cycle = 0; cycle < 400; ++cycle) sim.step();
  EXPECT_TRUE(sim.algorithm().uniform_at(beside));
  for (int cycle = 400; cycle < 600; ++cycle) sim.step();
  ASSERT_TRUE(sim.faults().active({3, 3}));
  ASSERT_TRUE(ft.unsafe({3, 3}));
  EXPECT_FALSE(sim.algorithm().uniform_at(beside));

  EXPECT_EQ(fnv1a(report_json(cfg)), 0x040be57ef8a8cdcdULL);
}

TEST(KernelStats, CollectingStatsDoesNotPerturbResults) {
  auto cfg = kernel_config();
  cfg.collect_kernel_stats = false;
  Simulator plain(cfg);
  const auto a = plain.run();
  cfg.collect_kernel_stats = true;
  Simulator collected(cfg);
  const auto b = collected.run();
  EXPECT_EQ(a.latency.mean, b.latency.mean);
  EXPECT_EQ(a.throughput.accepted_flits_per_node_cycle,
            b.throughput.accepted_flits_per_node_cycle);
  EXPECT_EQ(a.adaptivity.decisions, b.adaptivity.decisions);
}

}  // namespace
