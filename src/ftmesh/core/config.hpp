#pragma once
// Simulation configuration: one struct drives the whole stack.
// Defaults reproduce the paper's headline setup: 10x10 mesh, 100-flit
// messages, 24 VCs per physical channel, uniform traffic, 30k cycles with
// 10k warm-up.

#include <cstdint>
#include <string>
#include <vector>

#include "ftmesh/fault/fault_region.hpp"
#include "ftmesh/routing/selection.hpp"

namespace ftmesh::core {

struct SimConfig {
  // topology
  int width = 10;
  int height = 10;

  // routing
  std::string algorithm = "Duato";
  int total_vcs = 24;
  int misroute_limit = 10;
  bool xy_escape = true;
  routing::SelectionPolicy selection = routing::SelectionPolicy::Random;

  // router microarchitecture
  int buffer_depth = 2;
  int injection_vcs = 1;

  // workload
  std::string traffic = "uniform";
  /// Messages/node/cycle.  Negative -> saturated sources (a fresh message
  /// the moment the previous one finished injecting); exactly 0 -> no
  /// offered traffic (idle network, useful for drain tests and the idle
  /// micro benchmark); positive -> Poisson arrivals at this rate.
  double injection_rate = 0.01;
  std::uint32_t message_length = 100;

  // faults: explicit blocks win over a random fault count
  int fault_count = 0;
  /// Random dead physical links drawn alongside fault_count nodes
  /// (ignored when fault_blocks is set — blocks have no link grammar).
  int link_fault_count = 0;
  std::vector<fault::Rect> fault_blocks;

  // dynamic faults (inject/): runtime fault events + message recovery.
  // Empty schedule = static faults only.  See FaultSchedule for the spec
  // grammar ("fail@2000:4,4; random:count=3,rate=0.001").
  std::string fault_schedule;
  int fault_max_retries = 3;              ///< retransmissions per message, 0-64
  std::uint64_t fault_retry_backoff = 64; ///< base retry delay, doubled per retry

  // schedule
  std::uint64_t warmup_cycles = 10000;
  std::uint64_t total_cycles = 30000;
  std::uint64_t seed = 1;
  std::uint64_t watchdog_patience = 2000;

  // cycle-kernel scheduling (router/network.hpp)
  /// Retired: validate() accepts only "active" (the kernel has one scan).
  /// The key still loads so older saved configs run; the field is deleted
  /// once perfbench stops reading it (ROADMAP item 1).
  std::string scan_mode = "active";
  /// Retired: validate() accepts only true (the route-candidate cache is
  /// always on).  The key still loads; the field is deleted by ROADMAP
  /// item 1's benchmark change, once perfbench stops assigning it.
  bool route_cache = true;
  /// Retired: the kernel steps the whole mesh as one unit on the calling
  /// thread and ignores both fields; warnings() names any other value and
  /// validate() still rejects tiles < 1.  The keys still load and save, so
  /// saved configs and campaign spec hashes stay as they were; the fields
  /// are deleted once perfbench stops assigning them (ROADMAP item 1).
  int tiles = 1;
  int step_threads = 1;
  /// Retired: validate() accepts only true (message slots always recycle).
  /// The key still loads; the field is deleted once perfbench stops
  /// reading it (ROADMAP item 1).
  bool recycle_messages = true;
  /// Retired: validate() accepts only true (message slots come from one
  /// pool).  The key still loads; the field is deleted once
  /// perfbench stops reading it (ROADMAP item 1).
  bool shard_alloc = true;

  // optional statistics
  bool collect_vc_usage = false;
  bool collect_traffic_map = false;
  bool collect_kernel_stats = false;  ///< cache hit rate + active-set sizes
  /// Sample a time-series metrics point every N cycles (trace/
  /// metrics_recorder.hpp); 0 = recording off.
  std::uint64_t metrics_interval = 0;

  /// Field-by-field equality: the same config simulates the same run.
  bool operator==(const SimConfig&) const = default;

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;

  /// Non-fatal configuration smells, one human-readable line each: an
  /// injection_rate of 0 (before the saturated-source rework that value
  /// meant "saturated", now it means "idle" — a silently different
  /// experiment when replaying an old config), and a retired tiles or
  /// step_threads value other than 1, which the kernel ignores.
  [[nodiscard]] std::vector<std::string> warnings() const;
};

}  // namespace ftmesh::core
