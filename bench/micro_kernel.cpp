// P1 — google-benchmark micro-benchmarks of the simulator kernel:
// network cycle cost at several loads, fault-map construction, f-ring
// construction, and candidate enumeration.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "ftmesh/campaign/stream.hpp"
#include "ftmesh/core/simulator.hpp"
#include "ftmesh/trace/trace_sink.hpp"

namespace {

using ftmesh::core::SimConfig;
using ftmesh::core::Simulator;

SimConfig kernel_config(double rate, int faults) {
  SimConfig cfg;
  cfg.width = cfg.height = 10;
  cfg.message_length = 100;
  cfg.total_vcs = 24;
  cfg.injection_rate = rate;
  cfg.fault_count = faults;
  cfg.warmup_cycles = 1;
  cfg.total_cycles = 1u << 30;  // stepped manually
  cfg.seed = 3;
  return cfg;
}

void BM_NetworkStepIdle(benchmark::State& state) {
  // rate == 0: an idle network (no sources ever fire), measuring the
  // fixed per-cycle cost.  With active-set scanning this is the
  // everything-empty fast path.
  Simulator sim(kernel_config(0.0, 0));
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_NetworkStepIdle);

void BM_NetworkStepModerateLoad(benchmark::State& state) {
  Simulator sim(kernel_config(0.001, 0));
  for (int i = 0; i < 2000; ++i) sim.step();  // reach steady state
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_NetworkStepModerateLoad);

void BM_NetworkStepKnee(benchmark::State& state) {
  // The paper-headline shape: Duato-Nbc, 24 VCs, 100-flit worms, 5 faults,
  // rate 0.002 — near the knee, where almost every router has a sendable
  // flit every cycle.  Skipping idle routers saves little here: the cost
  // is in the busy routers, where few of the 5 x 24 input VCs have work
  // and about half of those that do wait on a downstream buffer with no
  // free slot.  The crossbar collects `switch_ready & ~credit_blocked`, so
  // such a worm costs a word AND, not a load of its input and output VC;
  // a credited request reads its output port from the route table, so one
  // that loses the match loads no input VC either.
  auto cfg = kernel_config(0.002, 5);
  cfg.algorithm = "Duato-Nbc";
  Simulator sim(cfg);
  for (int i = 0; i < 2000; ++i) sim.step();
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_NetworkStepKnee);

void BM_NetworkStepModerateLoadTraceDiscard(benchmark::State& state) {
  // Same load with a discarding trace sink attached: prices the event
  // emission hooks themselves (no serialisation).  The CI gate holds the
  // ratio to BM_NetworkStepModerateLoad (tools/bench_compare.py --pair);
  // tracing *disabled* is a null-pointer branch per emission point and is
  // covered by the absolute gates on the untraced benchmarks.
  Simulator sim(kernel_config(0.001, 0));
  ftmesh::trace::CountingSink sink;
  sim.set_trace_sink(&sink);
  for (int i = 0; i < 2000; ++i) sim.step();
  for (auto _ : state) sim.step();
  benchmark::DoNotOptimize(sink.total());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_NetworkStepModerateLoadTraceDiscard);

void BM_NetworkStepSaturated(benchmark::State& state) {
  Simulator sim(kernel_config(-1.0, 0));
  for (int i = 0; i < 2000; ++i) sim.step();
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_NetworkStepSaturated);

void BM_NetworkLongRunPeakSlots(benchmark::State& state) {
  // Long-run footprint probe: steps a moderate load for as long as the
  // benchmark harness asks and reports the slot-table high-water mark next
  // to the retired count.  With recycling the peak tracks the in-flight
  // population and plateaus; messages_retired keeps growing with run
  // length.
  Simulator sim(kernel_config(0.001, 0));
  std::size_t peak = 0;
  for (auto _ : state) {
    sim.step();
    peak = std::max(peak, sim.network().message_slots());
  }
  state.counters["peak_slots"] = static_cast<double>(peak);
  state.counters["messages_retired"] =
      static_cast<double>(sim.network().retired().size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_NetworkLongRunPeakSlots);

void BM_NetworkStepSaturatedFaulty(benchmark::State& state) {
  Simulator sim(kernel_config(-1.0, 10));
  for (int i = 0; i < 2000; ++i) sim.step();
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_NetworkStepSaturatedFaulty);

void BM_NetworkStepLinkFaults(benchmark::State& state) {
  // Saturated load over a mixed node+link fault pattern: isolated dead
  // links form degenerate (inverted-box) regions that deactivate no
  // routers, so every cycle pays the candidate-masking filter and the
  // link-aware victim scan on top of the usual f-ring detours.
  auto cfg = kernel_config(-1.0, 4);
  cfg.link_fault_count = 4;
  Simulator sim(cfg);
  for (int i = 0; i < 2000; ++i) sim.step();
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_NetworkStepLinkFaults);

void BM_RandomFaultMap(benchmark::State& state) {
  const ftmesh::topology::Mesh mesh(10, 10);
  ftmesh::sim::Rng rng(5);
  for (auto _ : state) {
    auto map = ftmesh::fault::FaultMap::random(mesh, 10, rng);
    benchmark::DoNotOptimize(map.active_count());
  }
}
BENCHMARK(BM_RandomFaultMap);

void BM_FRingConstruction(benchmark::State& state) {
  const ftmesh::topology::Mesh mesh(10, 10);
  ftmesh::sim::Rng rng(5);
  const auto map = ftmesh::fault::FaultMap::random(mesh, 10, rng);
  for (auto _ : state) {
    ftmesh::fault::FRingSet rings(map);
    benchmark::DoNotOptimize(rings.ring_count());
  }
}
BENCHMARK(BM_FRingConstruction);

void BM_CandidateEnumeration(benchmark::State& state) {
  const ftmesh::topology::Mesh mesh(10, 10);
  ftmesh::sim::Rng rng(5);
  const auto map = ftmesh::fault::FaultMap::random(mesh, 10, rng);
  const ftmesh::fault::FRingSet rings(map);
  const auto algo =
      ftmesh::routing::make_algorithm("Duato-Nbc", mesh, map, rings);
  ftmesh::router::HeaderState msg;
  const auto active = map.active_nodes();
  msg.src = active.front();
  msg.dst = active.back();
  algo->on_inject(msg);
  ftmesh::routing::CandidateList out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    algo->candidates(active[i % active.size()], msg, out);
    benchmark::DoNotOptimize(out.size());
    ++i;
  }
}
BENCHMARK(BM_CandidateEnumeration);

void BM_CampaignStreamed(benchmark::State& state) {
  // A 10^4-cell campaign of deliberately tiny cells, streamed to a null
  // sink.  The interesting output is not the time but the counters: the
  // claim window must keep the peak number of simultaneously retained
  // per-pattern SimResults at O(threads), independent of campaign size.
  // CI gates peak_retained via bench_compare.py --counter-max.
  ftmesh::campaign::CampaignSpec spec;
  spec.base.width = spec.base.height = 4;
  spec.base.message_length = 2;
  spec.base.warmup_cycles = 20;
  spec.base.total_cycles = 80;
  spec.base.seed = 7;
  spec.algorithms = {"PHop"};
  spec.rates.reserve(5000);
  for (int i = 0; i < 5000; ++i) spec.rates.push_back(1e-5 + 1e-7 * i);
  spec.fault_counts = {0, 3};
  spec.patterns = 2;

  struct NullSink : ftmesh::campaign::CellSink {
    std::size_t cells = 0;
    void on_cell(const ftmesh::campaign::CellRecord&) override { ++cells; }
  } sink;

  ftmesh::campaign::StreamStats stats;
  for (auto _ : state) {
    sink.cells = 0;
    ftmesh::campaign::StreamOptions options;
    options.threads = 4;
    stats = ftmesh::campaign::run_streamed(spec, options, &sink);
  }
  state.counters["cells"] = static_cast<double>(sink.cells);
  state.counters["runs"] = static_cast<double>(stats.runs_executed);
  state.counters["peak_retained"] =
      static_cast<double>(stats.peak_retained_results);
}
BENCHMARK(BM_CampaignStreamed)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  // Ubuntu's packaged libbenchmark is compiled without NDEBUG, so the
  // stock context.library_build_type says "debug" even when this binary
  // is a -O2 Release build.  Stamp the build type of the code actually
  // under measurement; tools/bench_compare.py gates on this key and only
  // falls back to library_build_type when it is absent.
#ifdef NDEBUG
  benchmark::AddCustomContext("ftmesh_build_type", "release");
#else
  benchmark::AddCustomContext("ftmesh_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
