// Tests for the statistics reductions (latency, throughput, VC usage,
// traffic split).

#include <gtest/gtest.h>

#include "ftmesh/routing/registry.hpp"
#include "ftmesh/stats/latency_stats.hpp"
#include "ftmesh/stats/traffic_map.hpp"
#include "ftmesh/stats/vc_usage.hpp"

namespace {

using ftmesh::fault::FaultMap;
using ftmesh::fault::FRingSet;
using ftmesh::fault::Rect;
using ftmesh::router::Network;
using ftmesh::router::NetworkConfig;
using ftmesh::sim::Rng;
using ftmesh::topology::Coord;
using ftmesh::topology::Mesh;

struct StatFixture {
  Mesh mesh{8, 8};
  FaultMap faults{mesh};
  FRingSet rings{faults};
  std::unique_ptr<ftmesh::routing::RoutingAlgorithm> algo;
  std::unique_ptr<Network> net;

  explicit StatFixture(NetworkConfig cfg = {}) {
    algo = ftmesh::routing::make_algorithm("Minimal-Adaptive", mesh, faults, rings);
    net = std::make_unique<Network>(mesh, faults, *algo, cfg, Rng(5));
  }
};

TEST(LatencyStats, CountsOnlyPostWarmupMessages) {
  StatFixture f;
  f.net->create_message({0, 0}, {3, 0}, 5);  // created at cycle 0
  for (int i = 0; i < 50; ++i) f.net->step();
  f.net->begin_measurement();
  f.net->create_message({0, 0}, {3, 0}, 5);  // created at cycle 50
  for (int i = 0; i < 50; ++i) f.net->step();
  const auto s = ftmesh::stats::summarize_latency(*f.net, 50);
  EXPECT_EQ(s.generated, 1u);
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_EQ(s.undelivered, 0u);
  EXPECT_GT(s.mean, 0.0);
}

TEST(LatencyStats, NetworkLatencyExcludesQueueing) {
  StatFixture f;
  // Two long messages from one source: the second queues behind the first.
  f.net->create_message({0, 0}, {7, 0}, 50);
  f.net->create_message({0, 0}, {7, 0}, 50);
  for (int i = 0; i < 400; ++i) f.net->step();
  const auto s = ftmesh::stats::summarize_latency(*f.net, 0);
  EXPECT_EQ(s.delivered, 2u);
  EXPECT_LT(s.mean_network, s.mean);
}

TEST(LatencyStats, PercentilesOrdered) {
  StatFixture f;
  Rng rng(2);
  for (int i = 0; i < 60; ++i) {
    const Coord src{static_cast<int>(rng.next_below(8)),
                    static_cast<int>(rng.next_below(8))};
    const Coord dst{static_cast<int>(rng.next_below(8)),
                    static_cast<int>(rng.next_below(8))};
    if (!(src == dst)) f.net->create_message(src, dst, 10);
  }
  for (int i = 0; i < 2000; ++i) f.net->step();
  const auto s = ftmesh::stats::summarize_latency(*f.net, 0);
  EXPECT_GT(s.delivered, 0u);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(PercentileSorted, SingleSampleIsEveryPercentile) {
  const std::vector<double> one{42.0};
  EXPECT_DOUBLE_EQ(ftmesh::stats::percentile_sorted(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(ftmesh::stats::percentile_sorted(one, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(ftmesh::stats::percentile_sorted(one, 0.99), 42.0);
  EXPECT_DOUBLE_EQ(ftmesh::stats::percentile_sorted(one, 1.0), 42.0);
}

TEST(PercentileSorted, SmallSampleTailInterpolatesTowardMax) {
  // Regression for the floor-index truncation: "p95 of {1, 100}" must not
  // be the minimum.
  const std::vector<double> two{1.0, 100.0};
  const double p95 = ftmesh::stats::percentile_sorted(two, 0.95);
  EXPECT_GT(p95, 1.0);
  EXPECT_DOUBLE_EQ(p95, 1.0 + 0.95 * 99.0);
  // With a handful of delivered messages, p99 sits near (and never above)
  // the observed maximum.
  const std::vector<double> five{10.0, 20.0, 30.0, 40.0, 50.0};
  const double p99 = ftmesh::stats::percentile_sorted(five, 0.99);
  EXPECT_GT(p99, 49.0);
  EXPECT_LE(p99, 50.0);
}

TEST(PercentileSorted, DuplicateHeavySamples) {
  const std::vector<double> dup{5.0, 5.0, 5.0, 5.0, 9.0};
  EXPECT_DOUBLE_EQ(ftmesh::stats::percentile_sorted(dup, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(ftmesh::stats::percentile_sorted(dup, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(ftmesh::stats::percentile_sorted(dup, 1.0), 9.0);
  const double p90 = ftmesh::stats::percentile_sorted(dup, 0.90);
  EXPECT_GT(p90, 5.0);
  EXPECT_LT(p90, 9.0);
}

TEST(PercentileSorted, EdgeInputs) {
  EXPECT_DOUBLE_EQ(ftmesh::stats::percentile_sorted({}, 0.5), 0.0);
  const std::vector<double> v{1.0, 2.0, 3.0};
  // Out-of-range p clamps instead of reading out of bounds.
  EXPECT_DOUBLE_EQ(ftmesh::stats::percentile_sorted(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(ftmesh::stats::percentile_sorted(v, 1.5), 3.0);
}

TEST(LatencyStats, EmptyWindowIsZeroed) {
  StatFixture f;
  const auto s = ftmesh::stats::summarize_latency(*f.net, 0);
  EXPECT_EQ(s.delivered, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Throughput, AcceptedEqualsOfferedBelowSaturation) {
  StatFixture f;
  f.net->begin_measurement();
  const int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    f.net->create_message({i % 8, (i / 8) % 8}, {(i + 3) % 8, (i + 5) % 8}, 10);
    for (int c = 0; c < 40; ++c) f.net->step();
  }
  for (int c = 0; c < 200; ++c) f.net->step();
  const auto t = ftmesh::stats::summarize_throughput(*f.net);
  EXPECT_DOUBLE_EQ(t.accepted_fraction, 1.0);
  EXPECT_GT(t.accepted_flits_per_node_cycle, 0.0);
  EXPECT_LE(t.accepted_flits_per_node_cycle, t.offered_flits_per_node_cycle);
}

TEST(Throughput, ZeroWithoutMeasurement) {
  StatFixture f;
  const auto t = ftmesh::stats::summarize_throughput(*f.net);
  EXPECT_EQ(t.accepted_flits_per_node_cycle, 0.0);
  EXPECT_EQ(t.accepted_fraction, 0.0);
}

TEST(VcUsage, ReportsBusyFractionPerVc) {
  NetworkConfig cfg;
  cfg.collect_vc_usage = true;
  StatFixture f(cfg);
  f.net->begin_measurement();
  f.net->create_message({0, 0}, {7, 7}, 100);
  for (int i = 0; i < 120; ++i) f.net->step();
  const auto u = ftmesh::stats::summarize_vc_usage(*f.net);
  ASSERT_EQ(u.percent.size(), 24u);
  for (const double p : u.percent) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 100.0);
  }
  EXPECT_GT(u.total(), 0.0);
}

TEST(VcUsage, EmptyWithoutSamples) {
  StatFixture f;  // collect_vc_usage off
  const auto u = ftmesh::stats::summarize_vc_usage(*f.net);
  EXPECT_EQ(u.total(), 0.0);
}

TEST(TrafficSplit, FRingNodesLoadedWhenRoutingAroundFault) {
  const Mesh mesh(8, 8);
  const auto faults = FaultMap::from_blocks(mesh, {Rect{3, 3, 4, 4}});
  const FRingSet rings(faults);
  const auto algo =
      ftmesh::routing::make_algorithm("Minimal-Adaptive", mesh, faults, rings);
  NetworkConfig cfg;
  cfg.collect_traffic_map = true;
  Network net(mesh, faults, *algo, cfg, Rng(5));
  net.begin_measurement();
  // Row traffic that must detour around the region.
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    const int y = 3 + static_cast<int>(rng.next_below(2));
    net.create_message({0, y}, {7, y}, 4);
    for (int c = 0; c < 12; ++c) net.step();
  }
  for (int c = 0; c < 500; ++c) net.step();
  const auto split = ftmesh::stats::summarize_traffic_split(net, rings);
  EXPECT_GT(split.fring_nodes, 0u);
  EXPECT_GT(split.other_nodes, 0u);
  EXPECT_GT(split.fring_mean_percent, split.other_mean_percent);
  EXPECT_EQ(split.fring_peak_percent, 100.0);  // busiest node is on the ring
}

TEST(TrafficGrid, NormalizedToPeak) {
  NetworkConfig cfg;
  cfg.collect_traffic_map = true;
  StatFixture f(cfg);
  f.net->begin_measurement();
  f.net->create_message({0, 0}, {7, 0}, 10);
  for (int i = 0; i < 100; ++i) f.net->step();
  const auto grid = ftmesh::stats::normalized_traffic_grid(f.net->node_traffic());
  double peak = 0.0;
  for (const double v : grid) peak = std::max(peak, v);
  EXPECT_DOUBLE_EQ(peak, 100.0);
}

TEST(TrafficGrid, AllZeroWhenNoTraffic) {
  NetworkConfig cfg;
  cfg.collect_traffic_map = true;
  StatFixture f(cfg);
  const auto grid = ftmesh::stats::normalized_traffic_grid(f.net->node_traffic());
  for (const double v : grid) EXPECT_EQ(v, 0.0);
}

}  // namespace
