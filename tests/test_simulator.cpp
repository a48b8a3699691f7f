// Integration tests for the Simulator façade and SimConfig validation.

#include <gtest/gtest.h>

#include "ftmesh/core/simulator.hpp"

namespace {

using ftmesh::core::SimConfig;
using ftmesh::core::Simulator;
using ftmesh::fault::Rect;

SimConfig small_config() {
  SimConfig cfg;
  cfg.width = 8;
  cfg.height = 8;
  cfg.injection_rate = 0.0005;
  cfg.message_length = 20;
  cfg.warmup_cycles = 500;
  cfg.total_cycles = 3000;
  cfg.seed = 42;
  return cfg;
}

TEST(SimConfig, ValidatesRanges) {
  SimConfig cfg = small_config();
  cfg.width = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.algorithm = "Unknown";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.warmup_cycles = cfg.total_cycles;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.buffer_depth = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.message_length = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.fault_count = 64;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(small_config().validate());
}

TEST(Simulator, FaultFreeRunDeliversEverything) {
  auto cfg = small_config();
  Simulator sim(cfg);
  const auto r = sim.run();
  EXPECT_FALSE(r.deadlock);
  EXPECT_EQ(r.cycles_run, cfg.total_cycles);
  EXPECT_GT(r.latency.delivered, 0u);
  // At this trivial load nearly everything completes; stragglers are only
  // the messages created in the last ~latency window.
  EXPECT_LT(r.latency.undelivered, 8u);
  // Accepted tracks offered up to the window-edge effect (messages still in
  // flight when measurement closes).
  EXPECT_GE(r.throughput.accepted_fraction, 0.9);
}

TEST(Simulator, RandomFaultsAreAppliedAndSurvivable) {
  auto cfg = small_config();
  cfg.fault_count = 5;
  Simulator sim(cfg);
  EXPECT_EQ(sim.faults().faulty_count(), 5);
  EXPECT_EQ(sim.rings().ring_count(), sim.faults().regions().size());
  const auto r = sim.run();
  EXPECT_FALSE(r.deadlock);
  EXPECT_GT(r.latency.delivered, 0u);
  EXPECT_EQ(r.faulty_nodes, 5);
}

TEST(Simulator, ExplicitBlocksWinOverFaultCount) {
  auto cfg = small_config();
  cfg.fault_count = 3;
  cfg.fault_blocks = {Rect{2, 2, 3, 3}};
  Simulator sim(cfg);
  EXPECT_EQ(sim.faults().faulty_count(), 4);
  EXPECT_EQ(sim.faults().regions().size(), 1u);
}

TEST(Simulator, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    auto cfg = small_config();
    cfg.seed = seed;
    cfg.fault_count = 4;
    Simulator sim(cfg);
    const auto r = sim.run();
    return std::tuple{r.latency.delivered, r.latency.mean,
                      r.throughput.accepted_flits_per_node_cycle};
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Simulator, EveryAlgorithmCompletesAShortFaultyRun) {
  for (const auto& name : ftmesh::routing::algorithm_names()) {
    auto cfg = small_config();
    cfg.width = cfg.height = 10;  // PHop needs 19 classes -> radix 10 budget
    cfg.algorithm = name;
    cfg.fault_count = 6;
    cfg.total_cycles = 2000;
    cfg.warmup_cycles = 400;
    Simulator sim(cfg);
    const auto r = sim.run();
    EXPECT_FALSE(r.deadlock) << name;
    EXPECT_GT(r.latency.delivered, 0u) << name;
  }
}

TEST(Simulator, CollectsOptionalStatsOnDemand) {
  auto cfg = small_config();
  cfg.collect_vc_usage = true;
  cfg.collect_traffic_map = true;
  cfg.fault_blocks = {Rect{3, 3, 4, 4}};
  Simulator sim(cfg);
  const auto r = sim.run();
  EXPECT_EQ(r.vc_usage.percent.size(), 24u);
  EXPECT_GT(r.traffic_split.fring_nodes, 0u);
  // The kept per-node loads reproduce the split after the run is gone.
  ASSERT_EQ(r.node_traffic.size(), 64u);
  const auto split =
      ftmesh::stats::summarize_traffic_split(r.node_traffic, sim.faults(), sim.rings());
  EXPECT_EQ(split.fring_nodes, r.traffic_split.fring_nodes);
  EXPECT_EQ(split.other_nodes, r.traffic_split.other_nodes);
  EXPECT_EQ(split.fring_mean_percent, r.traffic_split.fring_mean_percent);
  EXPECT_EQ(split.other_peak_percent, r.traffic_split.other_peak_percent);
}

TEST(Simulator, KeepsNoLoadsWithoutTrafficMap) {
  Simulator sim(small_config());
  EXPECT_TRUE(sim.run().node_traffic.empty());
}

TEST(SimConfig, EqualitySeesFaultBlocksAndStatsFlags) {
  SimConfig a = small_config();
  SimConfig b = a;
  EXPECT_EQ(a, b);
  b.fault_blocks = {Rect{1, 1, 2, 2}};
  EXPECT_NE(a, b);
  b = a;
  b.collect_traffic_map = !a.collect_traffic_map;
  EXPECT_NE(a, b);
}

TEST(Simulator, SnapshotBeforeRunIsEmptyButValid) {
  Simulator sim(small_config());
  const auto r = sim.snapshot();
  EXPECT_EQ(r.latency.delivered, 0u);
  EXPECT_EQ(r.cycles_run, 0u);
}

TEST(Simulator, StepAdvancesOneCycle) {
  Simulator sim(small_config());
  EXPECT_EQ(sim.network().cycle(), 0u);
  sim.step();
  EXPECT_EQ(sim.network().cycle(), 1u);
}

TEST(Simulator, AllCreatedMessagesEventuallyDelivered) {
  // Low load + generous drain: nothing may be lost or stuck.
  auto cfg = small_config();
  cfg.fault_count = 8;
  cfg.injection_rate = 0.0008;
  cfg.total_cycles = 6000;
  cfg.seed = 11;
  Simulator sim(cfg);
  // Run the schedule, then drain with generation effectively stopped by
  // stepping the network directly.
  sim.run();
  auto& net = sim.network();
  for (int i = 0; i < 4000 && net.flits_in_network() > 0; ++i) net.step();
  // Source queues may still hold late-created messages, but anything that
  // entered the network must complete (finished messages are retired out of
  // the slot table; a live slot after the drain is necessarily uninjected).
  EXPECT_EQ(net.flits_in_network(), 0u);
  const auto& slots = net.messages();
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const auto& m = slots[s];
    if (m.id == ftmesh::router::kInvalidMessage) continue;
    EXPECT_EQ(m.injected, 0u);
    EXPECT_EQ(net.headers()[s].rs.hops, 0);
  }
}

}  // namespace
