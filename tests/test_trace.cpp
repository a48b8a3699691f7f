// Tests for the flit-event trace subsystem (trace/): sink backends, the
// lifecycle invariants of the emitted event stream, byte-stability of
// serialized traces across scheduler configurations, and the per-interval
// metrics recorder.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "ftmesh/core/simulator.hpp"
#include "ftmesh/report/json.hpp"
#include "ftmesh/trace/metrics_recorder.hpp"
#include "ftmesh/trace/trace_sink.hpp"

namespace {

using ftmesh::core::SimConfig;
using ftmesh::core::Simulator;
using ftmesh::router::MessageId;
using ftmesh::trace::ChromeTraceSink;
using ftmesh::trace::CountingSink;
using ftmesh::trace::Event;
using ftmesh::trace::EventKind;
using ftmesh::trace::JsonlSink;
using ftmesh::trace::VectorSink;

// The trace_message example scenario: a single worm steered around a fault
// block on an idle network.
SimConfig single_message_config() {
  SimConfig cfg;
  cfg.algorithm = "Nbc";
  cfg.injection_rate = 0.0;
  cfg.fault_blocks = {{4, 3, 5, 5}};
  cfg.warmup_cycles = 1;
  cfg.total_cycles = 600;
  return cfg;
}

// A loaded mesh with static faults: many concurrent worms, ring traffic,
// blocking under contention.
SimConfig loaded_config() {
  SimConfig cfg;
  cfg.algorithm = "Nbc";
  cfg.width = 8;
  cfg.height = 8;
  cfg.injection_rate = 0.008;
  cfg.message_length = 16;
  cfg.fault_count = 3;
  cfg.warmup_cycles = 400;
  cfg.total_cycles = 2200;
  cfg.seed = 11;
  return cfg;
}

std::vector<Event> run_traced(const SimConfig& cfg) {
  Simulator sim(cfg);
  VectorSink sink;
  sim.set_trace_sink(&sink);
  sim.run();
  return sink.events();
}

std::string jsonl_for(SimConfig cfg) {
  cfg.validate();
  Simulator sim(cfg);
  std::ostringstream os;
  JsonlSink sink(os);
  sim.set_trace_sink(&sink);
  sim.run();
  return os.str();
}

std::uint64_t count_kind(const std::vector<Event>& events, EventKind k) {
  return static_cast<std::uint64_t>(
      std::count_if(events.begin(), events.end(),
                    [&](const Event& e) { return e.kind == k; }));
}

TEST(TraceLifecycle, SingleMessageEventSequence) {
  auto cfg = single_message_config();
  Simulator sim(cfg);
  VectorSink sink;
  sim.set_trace_sink(&sink);
  const MessageId id =
      sim.network().create_message({1, 4}, {8, 4}, /*length=*/100);
  while (!sim.network().message_finished(id) &&
         sim.network().cycle() < cfg.total_cycles) {
    sim.step();
  }
  ASSERT_TRUE(sim.network().message_finished(id));

  const auto& events = sink.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, EventKind::Create);
  EXPECT_EQ(events.front().a, 100u);  // length rides in the payload word
  EXPECT_EQ(count_kind(events, EventKind::Create), 1u);
  EXPECT_EQ(count_kind(events, EventKind::Inject), 1u);
  EXPECT_EQ(count_kind(events, EventKind::Eject), 1u);

  // Ejection carries the hop count, and one VcAlloc fired per hop.
  const auto eject = std::find_if(
      events.begin(), events.end(),
      [](const Event& e) { return e.kind == EventKind::Eject; });
  ASSERT_NE(eject, events.end());
  const auto* m = sim.network().retired_record(id);
  ASSERT_NE(m, nullptr);  // delivered => retired
  EXPECT_EQ(eject->a, m->hops);
  EXPECT_EQ(eject->b, m->misroutes);
  EXPECT_EQ(count_kind(events, EventKind::VcAlloc), m->hops);
  EXPECT_EQ(count_kind(events, EventKind::Misroute), m->misroutes);

  // The detour around the block enters the ring exactly once and leaves it.
  EXPECT_EQ(count_kind(events, EventKind::RingEnter), 1u);
  EXPECT_EQ(count_kind(events, EventKind::RingExit), 1u);

  // No contention on an idle network: never blocked.
  EXPECT_EQ(count_kind(events, EventKind::Block), 0u);
  EXPECT_EQ(count_kind(events, EventKind::Unblock), 0u);
}

TEST(TraceLifecycle, LoadedRunInvariants) {
  const auto events = run_traced(loaded_config());
  ASSERT_FALSE(events.empty());

  const std::uint64_t creates = count_kind(events, EventKind::Create);
  const std::uint64_t injects = count_kind(events, EventKind::Inject);
  const std::uint64_t ejects = count_kind(events, EventKind::Eject);
  EXPECT_GT(creates, 0u);
  EXPECT_LE(injects, creates);
  EXPECT_LE(ejects, injects);
  EXPECT_GT(ejects, 0u);

  // Block fires only on transitions, so unblocks never outnumber blocks,
  // and per message the two strictly alternate starting with Block.
  EXPECT_LE(count_kind(events, EventKind::Unblock),
            count_kind(events, EventKind::Block));
  std::vector<int> blocked;  // per message: 1 while blocked
  for (const Event& e : events) {
    if (blocked.size() <= e.msg) blocked.resize(e.msg + 1, 0);
    if (e.kind == EventKind::Block) {
      EXPECT_EQ(blocked[e.msg], 0) << "double Block for msg " << e.msg;
      blocked[e.msg] = 1;
    } else if (e.kind == EventKind::Unblock) {
      EXPECT_EQ(blocked[e.msg], 1) << "Unblock without Block, msg " << e.msg;
      blocked[e.msg] = 0;
    }
  }

  // Cycles are non-decreasing: the stream is emitted in simulation order.
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_LE(events[i - 1].cycle, events[i].cycle);
  }
}

TEST(TraceLifecycle, RecoveryEventsMatchReliabilityCounters) {
  auto cfg = loaded_config();
  cfg.fault_count = 0;
  cfg.fault_schedule = "fail@700:3,3; fail@1100:5,2; repair@1600:3,3";
  cfg.fault_max_retries = 1;
  Simulator sim(cfg);
  VectorSink sink;
  sim.set_trace_sink(&sink);
  sim.run();
  sim.drain();
  const auto r = sim.snapshot();
  ASSERT_TRUE(r.reliability.enabled);

  const auto& events = sink.events();
  EXPECT_EQ(count_kind(events, EventKind::Abort), r.reliability.aborted);
  EXPECT_EQ(count_kind(events, EventKind::Retransmit),
            r.reliability.retransmissions);
  // Purge events cover the flushed resource-holders PLUS undelivered
  // messages whose endpoints died (still queued, holding nothing) — the
  // injector purges both but only counts the former as "flushed".
  EXPECT_GE(count_kind(events, EventKind::Purge),
            r.reliability.messages_flushed);
  EXPECT_GT(r.reliability.messages_flushed, 0u);
}

TEST(TraceDeterminism, JsonlByteStableAcrossSchedulerConfigs) {
  auto cfg = loaded_config();
  const std::string fast = jsonl_for(cfg);
  ASSERT_FALSE(fast.empty());
  EXPECT_EQ(fast, jsonl_for(cfg));  // repeatable
  cfg.tiles = 4;
  EXPECT_EQ(fast, jsonl_for(cfg));
}

TEST(TraceSinks, CountingMatchesVector) {
  const auto cfg = loaded_config();
  Simulator a(cfg);
  VectorSink vec;
  a.set_trace_sink(&vec);
  a.run();
  Simulator b(cfg);
  CountingSink cnt;
  b.set_trace_sink(&cnt);
  b.run();
  EXPECT_EQ(cnt.total(), vec.events().size());
  EXPECT_EQ(cnt.count(EventKind::Eject),
            count_kind(vec.events(), EventKind::Eject));
}

TEST(TraceSinks, ChromeTraceIsStructurallyValid) {
  auto cfg = loaded_config();
  Simulator sim(cfg);
  std::ostringstream os;
  {
    ChromeTraceSink sink(os, cfg.width);
    sim.set_trace_sink(&sink);
    sim.run();
    sim.set_trace_sink(nullptr);
  }  // destructor closes the array
  const std::string out = os.str();
  ASSERT_EQ(out.rfind("{\"traceEvents\":[", 0), 0u);
  ASSERT_EQ(out.substr(out.size() - 4), "\n]}\n");

  // Async spans balance: every "b" has an "e" once aborts are included.
  const auto count_sub = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = out.find(needle); pos != std::string::npos;
         pos = out.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_GT(count_sub("\"ph\":\"b\""), 0u);
  EXPECT_GT(count_sub("\"ph\":\"e\""), 0u);
  EXPECT_LE(count_sub("\"ph\":\"e\""), count_sub("\"ph\":\"b\""));
}

TEST(TraceSinks, ChromeTraceEmptyRunStillCloses) {
  std::ostringstream os;
  {
    ChromeTraceSink sink(os, 8);
  }
  EXPECT_EQ(os.str(), "{\"traceEvents\":[\n]}\n");
}

TEST(Metrics, SampleCountAndDeltasAreConsistent) {
  auto cfg = loaded_config();
  cfg.metrics_interval = 100;
  Simulator sim(cfg);
  const auto r = sim.run();
  // step() samples after the step that lands on each interval boundary.
  ASSERT_EQ(r.metrics.interval, 100u);
  ASSERT_EQ(r.metrics.samples.size(), cfg.total_cycles / 100);
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < r.metrics.samples.size(); ++i) {
    const auto& s = r.metrics.samples[i];
    EXPECT_EQ(s.cycle, (i + 1) * 100);
    delivered += s.delivered_messages;
    EXPECT_GE(s.cache_hit_rate, 0.0);
    EXPECT_LE(s.cache_hit_rate, 1.0);
  }
  // The interval deltas cover the whole run (measurement window included),
  // so their sum is the all-time delivery count.
  EXPECT_EQ(delivered, sim.network().counters().messages_delivered);
  EXPECT_GE(delivered, r.latency.delivered);
}

TEST(Metrics, SeriesByteStableAcrossStepThreads) {
  // Each tile owns a route cache, so the cache columns depend on the tile
  // count; at a fixed tiling the thread count must not move a byte.
  auto cfg = loaded_config();
  cfg.metrics_interval = 200;
  cfg.tiles = 4;
  const auto csv_for = [&](int threads) {
    auto c = cfg;
    c.step_threads = threads;
    Simulator sim(c);
    const auto r = sim.run();
    std::ostringstream os;
    ftmesh::trace::write_metrics_csv(os, r.metrics);
    return os.str();
  };
  const auto single = csv_for(1);
  ASSERT_GT(single.size(), 100u);
  EXPECT_EQ(single, csv_for(4));
}

TEST(Metrics, AppearsInJsonReport) {
  auto cfg = loaded_config();
  cfg.metrics_interval = 500;
  Simulator sim(cfg);
  const auto r = sim.run();
  std::ostringstream os;
  ftmesh::report::write_result_json(os, cfg, r);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"metrics\":{\"interval\":500"), std::string::npos);
  EXPECT_NE(out.find("\"ring_vcs_busy\""), std::string::npos);
}

TEST(Metrics, OffByDefault) {
  const auto cfg = loaded_config();
  Simulator sim(cfg);
  const auto r = sim.run();
  EXPECT_TRUE(r.metrics.samples.empty());
  std::ostringstream os;
  ftmesh::report::write_result_json(os, cfg, r);
  EXPECT_EQ(os.str().find("\"metrics\""), std::string::npos);
}

TEST(TraceOverhead, NullSinkDoesNotChangeResults) {
  // Attaching and detaching a sink must be behaviourally invisible: the
  // traced run's report equals the untraced run's report byte for byte —
  // also on the tile-parallel kernel, which traced runs now step too.
  auto parallel = loaded_config();
  parallel.tiles = 4;
  parallel.step_threads = 4;
  for (const SimConfig& cfg : {loaded_config(), parallel}) {
    const auto report_for = [&](bool traced) {
      Simulator sim(cfg);
      CountingSink sink;
      if (traced) sim.set_trace_sink(&sink);
      const auto r = sim.run();
      std::ostringstream os;
      ftmesh::report::write_result_json(os, cfg, r);
      return os.str();
    };
    EXPECT_EQ(report_for(false), report_for(true))
        << "tiles=" << cfg.tiles << " step_threads=" << cfg.step_threads;
  }
}

}  // namespace
