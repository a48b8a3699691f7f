#pragma once
// The golden corpus shared by test_golden_determinism (kernel settings
// against each other) and test_golden_fingerprints (every case against
// hashes pinned in tests/golden/fingerprints.txt): the 8x8 base
// configuration, its four fault scenarios, and helpers that render a run
// as its JSON report or its JSONL trace.

#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "ftmesh/core/config.hpp"
#include "ftmesh/core/simulator.hpp"
#include "ftmesh/report/json.hpp"
#include "ftmesh/trace/trace_sink.hpp"

namespace ftmesh::golden {

inline core::SimConfig base_config(const std::string& algorithm) {
  core::SimConfig cfg;
  cfg.algorithm = algorithm;
  cfg.width = 8;
  cfg.height = 8;
  cfg.injection_rate = 0.008;
  cfg.message_length = 16;
  cfg.warmup_cycles = 400;
  cfg.total_cycles = 2200;
  cfg.seed = 11;
  return cfg;
}

/// Runs `cfg` untraced and writes its JSON report to `os`; returns the
/// result for callers that also fingerprint fields the JSON omits.
inline core::SimResult write_report(std::ostream& os, core::SimConfig cfg) {
  cfg.validate();
  core::Simulator sim(cfg);
  const auto result = sim.run();
  report::write_result_json(os, cfg, result);
  return result;
}

/// Runs `cfg` with a JSONL trace sink writing to `os`.
inline void write_trace(std::ostream& os, core::SimConfig cfg) {
  cfg.validate();
  core::Simulator sim(cfg);
  trace::JsonlSink sink(os);
  sim.set_trace_sink(&sink);
  sim.run();
}

inline std::string report_for(core::SimConfig cfg) {
  std::ostringstream os;
  write_report(os, std::move(cfg));
  return os.str();
}

inline std::string trace_for(core::SimConfig cfg) {
  std::ostringstream os;
  write_trace(os, std::move(cfg));
  return os.str();
}

struct Scenario {
  const char* name;
  void (*apply)(core::SimConfig&);
};

inline const Scenario kScenarios[] = {
    {"no-fault", [](core::SimConfig&) {}},
    {"static-faults", [](core::SimConfig& cfg) { cfg.fault_count = 3; }},
    {"dynamic-schedule",
     [](core::SimConfig& cfg) {
       // A failure and a repair while traffic is in flight: exercises the
       // recovery purge, the f-ring rebuild, route-cache invalidation and
       // the post-event active-set rebuild.
       cfg.fault_schedule = "fail@700:3,3; fail@1100:5,2; repair@1600:3,3";
     }},
    {"transient-link",
     [](core::SimConfig& cfg) {
       // A full transient link-fault cycle — channel dies, crossing worms
       // are flushed and retransmitted over the detour, the link repairs,
       // routing goes minimal again — layered over a static dead link and
       // a node fault so degenerate (inverted-box) regions, candidate
       // masking and partial-router purges all run under every kernel
       // configuration.
       cfg.link_fault_count = 1;
       cfg.fault_schedule =
           "fail-link@700:3,3,E; fail@1000:5,5; repair-link@1500:3,3,E";
     }},
};

}  // namespace ftmesh::golden
