// Property-based sweeps: invariants that must hold for EVERY routing
// algorithm across random fault patterns and loads.
//
//  P1  no watchdog trip (deadlock) on any run
//  P2  every message that enters the network is delivered after a drain
//  P3  flits of a message arrive at the destination in order, without
//      interleaving with other messages
//  P4  hop counts are bounded (no livelock orbiting)
//  P5  simulation is a pure function of the seed

#include <gtest/gtest.h>

#include <map>

#include "ftmesh/core/simulator.hpp"

namespace {

using ftmesh::core::SimConfig;
using ftmesh::core::Simulator;

struct Case {
  std::string algorithm;
  int faults;
  std::uint64_t seed;
};

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  for (const auto& name : ftmesh::routing::algorithm_names()) {
    cases.push_back({name, 0, 21});
    cases.push_back({name, 5, 22});
    cases.push_back({name, 10, 23});
  }
  return cases;
}

class AlgorithmProperty : public ::testing::TestWithParam<Case> {};

SimConfig config_for(const Case& c) {
  SimConfig cfg;
  cfg.algorithm = c.algorithm;
  cfg.fault_count = c.faults;
  cfg.seed = c.seed;
  cfg.injection_rate = 0.0012;  // moderate load, below saturation
  cfg.message_length = 16;
  cfg.warmup_cycles = 400;
  cfg.total_cycles = 2600;
  return cfg;
}

TEST_P(AlgorithmProperty, DeliversEverythingInjectedWithoutDeadlock) {
  const auto& c = GetParam();
  Simulator sim(config_for(c));

  // P3 instrumentation: per-message in-order, single-destination delivery.
  std::map<ftmesh::router::MessageId, std::uint32_t> next_seq;
  std::map<ftmesh::router::MessageId, int> eject_node;
  bool order_violated = false;
  sim.network().set_eject_hook(
      [&](const ftmesh::router::Flit& flit, ftmesh::topology::Coord at) {
        if (flit.seq != next_seq[flit.msg]) order_violated = true;
        ++next_seq[flit.msg];
        auto [it, fresh] = eject_node.emplace(flit.msg, sim.mesh().id_of(at));
        if (!fresh && it->second != sim.mesh().id_of(at)) order_violated = true;
        // flit.msg is the message's *slot*; once the tail ejects the slot is
        // recycled for a fresh message, so drop the per-slot tracking state.
        if (ftmesh::router::is_tail(flit.type)) {
          next_seq.erase(flit.msg);
          eject_node.erase(flit.msg);
        }
      });

  sim.run();
  auto& net = sim.network();
  // Drain: generation stops, the network keeps stepping.
  for (int i = 0; i < 30000 && net.flits_in_network() > 0 &&
                  !net.watchdog().tripped();
       ++i) {
    net.step();
  }

  EXPECT_FALSE(net.watchdog().tripped()) << "P1 deadlock: " << c.algorithm;
  EXPECT_EQ(net.flits_in_network(), 0u) << "P2 drain: " << c.algorithm;
  EXPECT_FALSE(order_violated) << "P3 ordering: " << c.algorithm;

  const int bound = 8 * sim.mesh().diameter();  // generous livelock bound
  // Finished messages live in the retirement log; anything still holding a
  // slot after the drain must never have entered the network (queued only).
  for (const auto& r : net.retired()) {
    EXPECT_FALSE(r.aborted) << "P2 undelivered message: " << c.algorithm;
    EXPECT_LE(static_cast<int>(r.hops), bound)
        << "P4 hop bound: " << c.algorithm;
  }
  const auto& slots = net.messages();
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const auto& m = slots[s];
    if (m.id == ftmesh::router::kInvalidMessage) continue;
    EXPECT_EQ(m.injected, 0u) << "P2 undelivered message: " << c.algorithm;
    EXPECT_EQ(net.headers()[s].rs.hops, 0)
        << "P2 undelivered message: " << c.algorithm;
  }
}

TEST_P(AlgorithmProperty, SeedDeterminism) {
  const auto& c = GetParam();
  auto run = [&] {
    auto cfg = config_for(c);
    cfg.total_cycles = 1500;
    cfg.warmup_cycles = 300;
    Simulator sim(cfg);
    const auto r = sim.run();
    return std::tuple{r.latency.delivered, r.latency.mean, r.latency.p99};
  };
  EXPECT_EQ(run(), run()) << "P5 determinism: " << c.algorithm;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmProperty, ::testing::ValuesIn(make_cases()),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      std::string name = param_info.param.algorithm;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_f" + std::to_string(param_info.param.faults);
    });

// Fault-pattern robustness: many random block patterns, one fast algorithm
// of each channel-discipline family.
class FaultPatternProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(FaultPatternProperty, SurvivesManyRandomPatterns) {
  const auto& [algorithm, seed_base] = GetParam();
  for (int k = 0; k < 4; ++k) {
    SimConfig cfg;
    cfg.algorithm = algorithm;
    cfg.fault_count = 10;
    cfg.seed = static_cast<std::uint64_t>(seed_base * 100 + k);
    cfg.injection_rate = 0.0008;
    cfg.message_length = 12;
    cfg.warmup_cycles = 300;
    cfg.total_cycles = 1800;
    Simulator sim(cfg);
    sim.run();
    auto& net = sim.network();
    for (int i = 0; i < 20000 && net.flits_in_network() > 0 &&
                    !net.watchdog().tripped();
         ++i) {
      net.step();
    }
    EXPECT_FALSE(net.watchdog().tripped())
        << algorithm << " seed " << cfg.seed;
    EXPECT_EQ(net.flits_in_network(), 0u) << algorithm << " seed " << cfg.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FaultPatternProperty,
    ::testing::Values(std::tuple{std::string("PHop"), 1},
                      std::tuple{std::string("Nbc"), 2},
                      std::tuple{std::string("Duato-Nbc"), 3},
                      std::tuple{std::string("Fully-Adaptive"), 4},
                      std::tuple{std::string("Boura-FT"), 5}),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>&
           param_info) {
      std::string name = std::get<0>(param_info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
