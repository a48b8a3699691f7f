#pragma once
// The top-level façade: builds mesh, fault map, f-rings, routing algorithm,
// network and workload from a SimConfig, runs the schedule, and reduces the
// statistics.  One Simulator = one simulation run; runs are deterministic
// in (config, seed).

#include <memory>

#include "ftmesh/core/config.hpp"
#include "ftmesh/inject/fault_injector.hpp"
#include "ftmesh/router/network.hpp"
#include "ftmesh/routing/registry.hpp"
#include "ftmesh/stats/kernel_stats.hpp"
#include "ftmesh/stats/latency_stats.hpp"
#include "ftmesh/stats/reliability_stats.hpp"
#include "ftmesh/stats/traffic_map.hpp"
#include "ftmesh/stats/vc_usage.hpp"
#include "ftmesh/trace/metrics_recorder.hpp"
#include "ftmesh/traffic/generator.hpp"

namespace ftmesh::core {

/// Channel-choice flexibility per routing decision (measurement window).
/// Decisions are sampled every cycle a header waits, so congested states
/// weigh more -- choice is measured when it matters.
struct AdaptivitySummary {
  double mean_offered = 0.0;  ///< legal (dir, vc) candidates per decision
  double mean_free = 0.0;     ///< of those, currently unallocated
  std::uint64_t decisions = 0;
};

struct SimResult {
  stats::LatencySummary latency;
  stats::ThroughputSummary throughput;
  AdaptivitySummary adaptivity;
  stats::VcUsage vc_usage;          ///< filled when collect_vc_usage
  stats::TrafficSplit traffic_split; ///< filled when collect_traffic_map
  std::vector<std::uint64_t> node_traffic;  ///< per-node loads, same condition
  stats::ReliabilitySummary reliability;  ///< filled when a fault schedule ran
  stats::KernelSummary kernel;      ///< filled when collect_kernel_stats
  trace::MetricsSeries metrics;     ///< filled when metrics_interval > 0
  bool deadlock = false;            ///< watchdog tripped (run aborted early)
  std::uint64_t cycles_run = 0;
  int fault_regions = 0;
  int faulty_nodes = 0;
  int deactivated_nodes = 0;
};

/// The fault map a run of `cfg` starts from: cfg.fault_blocks when given,
/// else cfg.fault_count random nodes and cfg.link_fault_count random links
/// drawn from the seed, else a fault-free mesh.
fault::FaultMap initial_fault_map(const SimConfig& cfg,
                                  const topology::Mesh& mesh);

class Simulator {
 public:
  /// Builds everything; the starting faults come from initial_fault_map().
  explicit Simulator(SimConfig cfg);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Runs the full schedule (idempotent: call once) and reduces stats.
  SimResult run();

  /// Fine-grained stepping for tests/examples: one cycle (fault events +
  /// generation + network).
  void step();

  /// After run(): advances the clock with generation stopped until every
  /// in-flight message delivers or aborts and the fault engine is idle, or
  /// `max_extra_cycles` pass, or the watchdog trips.  Returns the drain
  /// cycles executed.  With dynamic faults this is the accounting check:
  /// afterwards generated == delivered + aborted iff recovery leaked
  /// nothing.
  std::uint64_t drain(std::uint64_t max_extra_cycles = 200000);

  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const topology::Mesh& mesh() const noexcept { return mesh_; }
  [[nodiscard]] const fault::FaultMap& faults() const noexcept { return *faults_; }
  [[nodiscard]] const fault::FRingSet& rings() const noexcept { return *rings_; }
  [[nodiscard]] const routing::RoutingAlgorithm& algorithm() const noexcept {
    return *algorithm_;
  }
  [[nodiscard]] router::Network& network() noexcept { return *network_; }
  [[nodiscard]] const router::Network& network() const noexcept { return *network_; }

  /// The dynamic fault engine, or nullptr when no schedule is configured.
  [[nodiscard]] const inject::FaultInjector* injector() const noexcept {
    return injector_.get();
  }

  /// Attaches (or detaches, with nullptr) a flit-event trace sink on the
  /// network.  The sink must outlive the simulation; see
  /// trace/trace_event.hpp for the determinism contract.
  void set_trace_sink(trace::TraceSink* sink) { network_->set_trace_sink(sink); }

  /// Collects the result of whatever has run so far.
  [[nodiscard]] SimResult snapshot() const;

 private:
  /// Refreshes every fault-derived cache after the injector mutated the
  /// fault map: in-flight ring state, watchdog, algorithm labels, traffic
  /// pattern / generator source sets.
  void post_reconfigure();

  SimConfig cfg_;
  topology::Mesh mesh_;
  std::unique_ptr<fault::FaultMap> faults_;
  std::unique_ptr<fault::FRingSet> rings_;
  std::unique_ptr<routing::RoutingAlgorithm> algorithm_;
  std::unique_ptr<traffic::TrafficPattern> pattern_;
  std::unique_ptr<router::Network> network_;
  std::unique_ptr<traffic::Generator> generator_;
  std::unique_ptr<inject::FaultInjector> injector_;
  std::unique_ptr<trace::MetricsRecorder> metrics_;
};

}  // namespace ftmesh::core
