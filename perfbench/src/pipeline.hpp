#pragma once
// The traced pipeline: core::Simulator rebuilt from the library's public
// pieces so that every call into a layer can be wrapped in a span.
//
// Construction mirrors Simulator::Simulator, step() mirrors
// Simulator::step (injector tick plus the post-reconfigure refreshes, then
// the generator tick, then the network step), drain() mirrors
// Simulator::drain and snapshot() mirrors Simulator::snapshot.  The
// benchmark compares every result of this pipeline with the one
// Simulator::run produces for the same configuration (fingerprint() below)
// and fails the run on any difference, so the traced numbers can never
// silently describe a different program.

#include <cstdint>
#include <memory>
#include <string>

#include "ftmesh/core/simulator.hpp"
#include "spans.hpp"

namespace perfbench {

class Pipeline {
 public:
  /// Builds the pieces in Simulator's order, one span per group:
  /// core.setup.faults (fault map, f-rings), core.setup.algorithm (routing
  /// algorithm, traffic pattern), core.setup.network (network, generator,
  /// fault injector).
  Pipeline(ftmesh::core::SimConfig cfg, Tracer& tracer);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Simulator::run: steps to total_cycles (or a watchdog trip), then
  /// reduces the statistics.
  ftmesh::core::SimResult run();

  /// Simulator::drain.
  std::uint64_t drain(std::uint64_t max_extra_cycles = 200000);

  /// Simulator::snapshot, inside a stats.reduce span.
  ftmesh::core::SimResult snapshot();

  [[nodiscard]] const ftmesh::router::Network& network() const { return *network_; }
  [[nodiscard]] const ftmesh::traffic::Generator& generator() const { return *generator_; }
  [[nodiscard]] const ftmesh::inject::FaultInjector* injector() const {
    return injector_.get();
  }

 private:
  void step();
  void post_reconfigure();

  ftmesh::core::SimConfig cfg_;
  Tracer& tracer_;
  std::unique_ptr<ftmesh::topology::Mesh> mesh_;
  std::unique_ptr<ftmesh::fault::FaultMap> faults_;
  std::unique_ptr<ftmesh::fault::FRingSet> rings_;
  std::unique_ptr<ftmesh::routing::RoutingAlgorithm> algorithm_;
  std::unique_ptr<ftmesh::traffic::TrafficPattern> pattern_;
  std::unique_ptr<ftmesh::router::Network> network_;
  std::unique_ptr<ftmesh::traffic::Generator> generator_;
  std::unique_ptr<ftmesh::inject::FaultInjector> injector_;
};

/// Every simulated statistic of a result, floats in hex, as one string:
/// two results are the same simulation iff their fingerprints are equal.
std::string fingerprint(const ftmesh::core::SimResult& r);

}  // namespace perfbench
