// Golden determinism corpus.
//
// Results depend only on the modelled inputs, never on a performance knob:
// the full JSON report — every latency percentile, throughput figure and
// reliability counter — is byte-identical across repeated runs
// (determinism in (config, seed)) and with the route-candidate cache
// emptied before every cycle (pure memoization, sound by the
// route_state_key contract); so is the JSONL trace.  The cold-cache run
// also recounts and reinstalls the kernel's occupancy state every cycle,
// so the from-scratch derivation must reproduce the incremental one.  The
// absolute results are pinned separately (test_golden_fingerprints).
//
// The kernel keeps no reference scan or storage model to compare against,
// so each case also checks what those comparisons stood for: a drained run
// leaves no message or occupied slot behind (the active-set walks strand
// no worm; every slot returns to the free list, one tile or four), every
// message id reads as one well-formed life in the trace although slots
// are reused, and the slot table is exactly the peak of concurrently live
// messages, one tile or four.
//
// The matrix deliberately includes a dynamic fault schedule so the
// cache-invalidation and active-set-rebuild paths are exercised, not just
// the steady state.
//
// The sharded kernel adds two more axes: the tile count (the mesh cut into
// rectangular shards with deferred boundary commits) and the step thread
// count (tiles dispatched on the
// shared pool).  Both must be invisible in reports and traces; the
// multi-threaded cases double as the TSan target for the parallel step
// path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ftmesh/trace/trace_sink.hpp"
#include "golden_corpus.hpp"

namespace {

using ftmesh::core::SimConfig;
using ftmesh::core::Simulator;
using ftmesh::golden::base_config;
using ftmesh::golden::kScenarios;
using ftmesh::golden::report_for;
using ftmesh::golden::trace_for;
using ftmesh::router::kInvalidMessage;
using ftmesh::trace::Event;
using ftmesh::trace::EventKind;
using ftmesh::trace::VectorSink;

const char* const kAlgorithms[] = {"Duato", "Boura-FT", "NHop"};

class GoldenDeterminism
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  SimConfig config() const {
    auto cfg = base_config(kAlgorithms[std::get<0>(GetParam())]);
    kScenarios[std::get<1>(GetParam())].apply(cfg);
    return cfg;
  }
};

TEST_P(GoldenDeterminism, RepeatedRunsAreByteIdentical) {
  const auto cfg = config();
  ASSERT_EQ(report_for(cfg), report_for(cfg));
}

/// Runs `sim` as Simulator::run does, but calls Network::on_fault_change()
/// before every cycle: the route cache starts each cycle empty, so every
/// candidate set is enumerated afresh at least once per cycle, and the
/// occupancy state is recounted and installed from scratch.
ftmesh::core::SimResult run_cold(Simulator& sim) {
  while (sim.network().cycle() < sim.config().total_cycles &&
         !sim.network().watchdog().tripped()) {
    sim.network().on_fault_change();
    sim.step();
  }
  return sim.snapshot();
}

TEST_P(GoldenDeterminism, RouteCacheDoesNotChangeTheReport) {
  const auto cfg = config();
  Simulator warm(cfg);
  std::ostringstream cached;
  ftmesh::report::write_result_json(cached, cfg, warm.run());
  Simulator cold(cfg);
  std::ostringstream flushed;
  ftmesh::report::write_result_json(flushed, cfg, run_cold(cold));
  ASSERT_EQ(cached.str(), flushed.str());
  EXPECT_LT(cold.network().route_cache_hits(),
            warm.network().route_cache_hits());
}

TEST_P(GoldenDeterminism, ShardedReportsAreByteIdentical) {
  // The sharded kernel (router/network.hpp, NetworkConfig::tiles): every
  // tile count and thread count must reproduce the single-tile report byte
  // for byte — cross-tile effects are deferred to an ordered commit and
  // every arbitration draw is a counter hash of (seed, cycle, node), so
  // neither the tiling nor the thread schedule can leak into results.  The
  // dynamic-schedule scenario covers the post-reconfiguration rebuild
  // (worklists must land on their owning tiles again).
  auto cfg = config();
  cfg.tiles = 1;
  cfg.step_threads = 1;
  const std::string single = report_for(cfg);
  for (const int tiles : {2, 4}) {
    for (const int threads : {1, 4}) {
      cfg.tiles = tiles;
      cfg.step_threads = threads;
      ASSERT_EQ(single, report_for(cfg))
          << "tiles=" << tiles << " threads=" << threads;
    }
  }
}

TEST_P(GoldenDeterminism, ShardedTracesAreByteIdentical) {
  // A traced step runs the same tile-parallel drivers as an untraced one:
  // each tile buffers its events and the network merges the buffers in
  // node order after every phase.  The JSONL stream must match the
  // single-tile run event for event at every tile and thread count; the
  // threaded cases are the TSan target for the parallel tracing path.
  auto cfg = config();
  cfg.tiles = 1;
  cfg.step_threads = 1;
  const std::string single = trace_for(cfg);
  ASSERT_FALSE(single.empty());
  for (const int tiles : {2, 4}) {
    for (const int threads : {1, 4}) {
      cfg.tiles = tiles;
      cfg.step_threads = threads;
      ASSERT_EQ(single, trace_for(cfg))
          << "tiles=" << tiles << " threads=" << threads;
    }
  }
}

TEST_P(GoldenDeterminism, RouteCacheDoesNotChangeTheTrace) {
  // The route-candidate cache is memoization only: the whole JSONL stream,
  // not just the end-of-run aggregates, must match with it emptied before
  // every cycle.
  const auto cfg = config();
  const std::string cached = trace_for(cfg);
  ASSERT_FALSE(cached.empty());
  std::ostringstream flushed;
  {
    Simulator sim(cfg);
    ftmesh::trace::JsonlSink sink(flushed);
    sim.set_trace_sink(&sink);
    run_cold(sim);
  }
  ASSERT_EQ(cached, flushed.str());
}

/// Runs `cfg`, then drains it, and checks that nothing was left behind:
/// every id handed out retired (delivered or aborted) and every slot is
/// back on the free list.  The active-set
/// walks are the only scan, so a ready VC they skipped would strand its
/// worm and the drain would end in the watchdog instead.
void expect_drains_clean(const SimConfig& cfg) {
  Simulator sim(cfg);
  ASSERT_FALSE(sim.run().deadlock);
  sim.drain();
  ASSERT_FALSE(sim.snapshot().deadlock);
  const auto& net = sim.network();
  EXPECT_GT(net.messages_created(), 0u);
  EXPECT_EQ(net.retired().size(), net.messages_created());
  EXPECT_EQ(net.free_message_slots(), net.message_slots());
  for (const auto& m : net.messages()) {
    EXPECT_EQ(m.id, kInvalidMessage);
  }
}

TEST_P(GoldenDeterminism, DrainLeavesNothingInFlight) {
  auto cfg = config();
  cfg.tiles = 1;
  cfg.step_threads = 1;
  expect_drains_clean(cfg);
}

TEST_P(GoldenDeterminism, ShardedDrainLeavesNothingInFlight) {
  // Four tiles on two threads: retirements from every tile return their
  // slots to the one free list.
  auto cfg = config();
  cfg.tiles = 4;
  cfg.step_threads = 2;
  expect_drains_clean(cfg);
}

TEST_P(GoldenDeterminism, EveryMessageHasOneWellFormedLifecycle) {
  // Slots are reused the cycle a tail ejects, but events carry the stable
  // id: per id the stream must read as one message's life — one Create
  // first, ids created in ascending order, nothing after its Eject or
  // Abort, and one injection per attempt.  After the drain every id has
  // ended.
  Simulator sim(config());
  VectorSink sink;
  sim.set_trace_sink(&sink);
  sim.run();
  sim.drain();
  const auto created = sim.network().messages_created();
  ASSERT_GT(created, 0u);
  std::vector<int> creates(created, 0), injects(created, 0),
      retransmits(created, 0), ends(created, 0);
  std::int64_t last_created = -1;
  for (const Event& e : sink.events()) {
    ASSERT_LT(e.msg, created);
    const auto i = static_cast<std::size_t>(e.msg);
    ASSERT_EQ(ends[i], 0) << to_string(e.kind) << " after the end of msg "
                          << e.msg;
    if (e.kind == EventKind::Create) {
      ASSERT_EQ(creates[i], 0) << "second Create for msg " << e.msg;
      ASSERT_GT(static_cast<std::int64_t>(e.msg), last_created);
      last_created = static_cast<std::int64_t>(e.msg);
      creates[i] = 1;
      continue;
    }
    ASSERT_EQ(creates[i], 1) << to_string(e.kind) << " before Create, msg "
                             << e.msg;
    switch (e.kind) {
      case EventKind::Inject: ++injects[i]; break;
      case EventKind::Retransmit: ++retransmits[i]; break;
      case EventKind::Eject:
      case EventKind::Abort: ends[i] = 1; break;
      default: break;
    }
    ASSERT_LE(injects[i], 1 + retransmits[i]) << "msg " << e.msg;
  }
  for (std::size_t i = 0; i < ends.size(); ++i) {
    EXPECT_EQ(creates[i], 1) << "msg " << i;
    EXPECT_EQ(ends[i], 1) << "msg " << i;
  }
}

TEST_P(GoldenDeterminism, SlotTableIsThePeakOfLiveMessages) {
  // A retired slot is reused before the table grows, so the table ends
  // exactly as large as the most messages ever live at once — counted from
  // the trace, where a message lives from its Create to its Eject or
  // Abort — however many were created over the run.  The tiling must not
  // park spare slots: four tiles end at the same peak as one.
  for (const auto& [tiles, threads] : {std::pair{1, 1}, std::pair{4, 2}}) {
    SCOPED_TRACE(testing::Message() << "tiles=" << tiles);
    auto cfg = config();
    cfg.tiles = tiles;
    cfg.step_threads = threads;
    Simulator sim(cfg);
    VectorSink sink;
    sim.set_trace_sink(&sink);
    sim.run();
    std::size_t live = 0, peak = 0;
    for (const Event& e : sink.events()) {
      if (e.kind == EventKind::Create) peak = std::max(peak, ++live);
      if (e.kind == EventKind::Eject || e.kind == EventKind::Abort) --live;
    }
    EXPECT_EQ(sim.network().message_slots(), peak);
    EXPECT_LT(peak, sim.network().messages_created());
  }
}

std::string param_name(const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  std::string s = std::string(kAlgorithms[std::get<0>(info.param)]) + "_" +
                  kScenarios[std::get<1>(info.param)].name;
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenDeterminism,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Range(0, 4)),
                         param_name);

}  // namespace
