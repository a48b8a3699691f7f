// Tests for the multi-run experiment harness.

#include <gtest/gtest.h>

#include <set>

#include "ftmesh/core/experiment.hpp"

namespace {

using ftmesh::core::SimConfig;

SimConfig tiny() {
  SimConfig cfg;
  cfg.width = 6;
  cfg.height = 6;
  cfg.injection_rate = 0.001;
  cfg.message_length = 8;
  cfg.warmup_cycles = 200;
  cfg.total_cycles = 1200;
  return cfg;
}

TEST(Experiment, FaultPatternSweepReSeeds) {
  const auto base = tiny();
  const auto configs = ftmesh::core::fault_pattern_sweep(base, 5);
  ASSERT_EQ(configs.size(), 5u);
  // Pattern 0 is the base run verbatim; later patterns derive a distinct
  // seed from (base seed, fault count, index) — see pattern_seed().
  EXPECT_EQ(configs[0].seed, base.seed);
  std::set<std::uint64_t> seeds;
  for (int i = 0; i < 5; ++i) {
    const auto& c = configs[static_cast<std::size_t>(i)];
    EXPECT_EQ(c.seed,
              ftmesh::core::pattern_seed(base.seed, base.fault_count, i));
    seeds.insert(c.seed);
  }
  EXPECT_EQ(seeds.size(), 5u);
}

TEST(Experiment, BatchMatchesSerialRuns) {
  auto cfgs = ftmesh::core::fault_pattern_sweep(tiny(), 4);
  for (auto& c : cfgs) c.fault_count = 3;
  const auto parallel = ftmesh::core::run_batch(cfgs, 4);
  const auto serial = ftmesh::core::run_batch(cfgs, 1);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i].latency.delivered, serial[i].latency.delivered);
    EXPECT_DOUBLE_EQ(parallel[i].latency.mean, serial[i].latency.mean);
  }
}

TEST(Experiment, BatchDrainsFlaggedRuns) {
  auto dynamic = tiny();
  dynamic.injection_rate = 0.01;  // leaves worms in flight at the end
  dynamic.fault_schedule = "fail@200:2,2";
  const std::vector<SimConfig> cfgs = {dynamic, dynamic};
  const auto results = ftmesh::core::run_batch(cfgs, 2, {false, true});
  ftmesh::core::Simulator sim(dynamic);
  const auto plain = sim.run();
  sim.drain();
  const auto drained = sim.snapshot();
  ASSERT_GT(drained.cycles_run, plain.cycles_run);
  EXPECT_EQ(results[0].cycles_run, plain.cycles_run);
  EXPECT_EQ(results[0].reliability.in_flight_end,
            plain.reliability.in_flight_end);
  EXPECT_EQ(results[1].cycles_run, drained.cycles_run);
  EXPECT_EQ(results[1].reliability.in_flight_end, 0u);
  EXPECT_EQ(results[1].reliability.delivered, drained.reliability.delivered);
  EXPECT_THROW(ftmesh::core::run_batch(cfgs, 2, {true}), std::invalid_argument);
}

TEST(Experiment, UndrawablePatternYieldsTheSkipMarker) {
  auto cfg = tiny();
  cfg.width = cfg.height = 3;
  cfg.fault_count = 8;  // one active node left: never admissible
  EXPECT_EQ(ftmesh::core::run_one(cfg).cycles_run, 0u);
  const auto results = ftmesh::core::run_batch({cfg, tiny()}, 2);
  EXPECT_EQ(results[0].cycles_run, 0u);
  EXPECT_EQ(results[1].cycles_run, tiny().total_cycles);
}

// An invalid config is not an undrawable pattern: its std::invalid_argument
// reaches the caller at every thread count (on pool threads it once called
// std::terminate).
TEST(Experiment, BatchRethrowsAnInvalidConfig) {
  auto bad = tiny();
  bad.message_length = 0;
  const std::vector<SimConfig> cfgs = {tiny(), bad, tiny(), tiny()};
  for (const int threads : {1, 4}) {
    try {
      (void)ftmesh::core::run_batch(cfgs, threads);
      FAIL() << "invalid config accepted at threads " << threads;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "message_length must be >= 1");
    }
  }
}

TEST(Experiment, AggregateAveragesScalars) {
  ftmesh::core::SimResult a, b;
  a.cycles_run = b.cycles_run = 100;
  a.latency.mean = 100.0;
  b.latency.mean = 300.0;
  a.latency.delivered = 10;
  b.latency.delivered = 30;
  a.throughput.accepted_fraction = 0.5;
  b.throughput.accepted_fraction = 1.0;
  const auto agg = ftmesh::core::aggregate({a, b});
  EXPECT_DOUBLE_EQ(agg.latency.mean, 200.0);
  EXPECT_EQ(agg.latency.delivered, 40u);
  EXPECT_DOUBLE_EQ(agg.throughput.accepted_fraction, 0.75);
}

TEST(Experiment, AggregateSkipsFailedRuns) {
  ftmesh::core::SimResult ok, failed;
  ok.cycles_run = 100;
  ok.latency.mean = 50.0;
  failed.cycles_run = 0;  // marker for an undrawable pattern
  failed.latency.mean = 9999.0;
  const auto agg = ftmesh::core::aggregate({ok, failed});
  EXPECT_DOUBLE_EQ(agg.latency.mean, 50.0);
}

TEST(Experiment, AggregateVcUsageElementwise) {
  ftmesh::core::SimResult a, b;
  a.cycles_run = b.cycles_run = 1;
  a.vc_usage.percent = {10.0, 20.0};
  b.vc_usage.percent = {30.0, 40.0};
  const auto agg = ftmesh::core::aggregate({a, b});
  ASSERT_EQ(agg.vc_usage.percent.size(), 2u);
  EXPECT_DOUBLE_EQ(agg.vc_usage.percent[0], 20.0);
  EXPECT_DOUBLE_EQ(agg.vc_usage.percent[1], 30.0);
}

TEST(Experiment, AggregateSumsLinkFaultCountsLikeNodeCounts) {
  ftmesh::core::SimResult a, b;
  a.cycles_run = b.cycles_run = 100;
  a.reliability.enabled = b.reliability.enabled = true;
  a.reliability.node_failures = 1;
  b.reliability.node_failures = 2;
  a.reliability.link_failures = 2;
  b.reliability.link_failures = 3;
  a.reliability.link_repairs = 1;
  const auto agg = ftmesh::core::aggregate({a, b});
  ASSERT_TRUE(agg.reliability.enabled);
  EXPECT_EQ(agg.reliability.node_failures, 3);
  EXPECT_EQ(agg.reliability.link_failures, 5);
  EXPECT_EQ(agg.reliability.link_repairs, 1);
}

TEST(Experiment, EmptyAggregateIsDefault) {
  const auto agg = ftmesh::core::aggregate({});
  EXPECT_EQ(agg.latency.delivered, 0u);
  EXPECT_EQ(agg.latency.mean, 0.0);
}

}  // namespace
