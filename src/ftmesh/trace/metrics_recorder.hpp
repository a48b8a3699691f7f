#pragma once
// Per-interval time-series telemetry: the behavioural view the end-of-run
// aggregates cannot give (ring congestion buildup, VC starvation windows,
// post-fault recovery transients).  The recorder samples the network's
// cumulative counters every `interval` cycles and stores the interval
// deltas plus a few instantaneous gauges.  The counters it reads are the
// kernel's exact whole-run counts, so a metrics series is a pure function
// of the configuration and seed, like every other report.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ftmesh/router/counters.hpp"

namespace ftmesh::router {
class Network;
}

namespace ftmesh::trace {

struct MetricsSample {
  std::uint64_t cycle = 0;  ///< interval end (the sample point)
  // Interval deltas.
  std::uint64_t delivered_messages = 0;
  double accepted_flits_per_node_cycle = 0.0;
  /// Mean creation->ejection latency of the messages delivered during the
  /// interval (0 when none delivered).
  double mean_latency = 0.0;
  double cache_hit_rate = 0.0;  ///< route-cache hits/lookups in the interval
  // Instantaneous gauges at the sample point.
  std::uint64_t flits_in_flight = 0;
  std::uint64_t route_nodes = 0;   ///< active-set sizes (router/network.hpp)
  std::uint64_t switch_nodes = 0;
  std::uint64_t inject_nodes = 0;
  std::uint64_t link_regs = 0;
  /// Allocated Boppana-Chalasani ring channels, summed over all links: the
  /// Sec. 5.2 "traffic concentrates on the f-ring" signal over time.
  std::uint64_t ring_vcs_busy = 0;
};

struct MetricsSeries {
  std::uint64_t interval = 0;  ///< cycles per sample; 0 = recording off
  std::vector<MetricsSample> samples;
};

/// Call on_cycle() once per simulated cycle (after Network::step()); a
/// sample is taken whenever the cycle count crosses an interval boundary.
class MetricsRecorder {
 public:
  /// `interval` must be >= 1.  Ring-channel indices are read from the
  /// network's VC layout once, here.
  MetricsRecorder(std::uint64_t interval, const router::Network& net);

  void on_cycle(const router::Network& net);

  [[nodiscard]] const MetricsSeries& series() const noexcept { return series_; }

 private:
  MetricsSeries series_;
  std::vector<int> ring_vcs_;
  router::Counters prev_;  ///< whole-run counters at the previous sample
};

/// The per-sample CSV columns: header names, and one sample's cells in
/// that order.  Shared by write_metrics_csv and the campaign metrics CSV,
/// which prefixes each row with its cell and pattern.
const std::vector<std::string>& metrics_csv_columns();
std::vector<std::string> metrics_csv_cells(const MetricsSample& s);

/// CSV with one row per sample (header included): the plotting-friendly
/// form of a single run's series.
void write_metrics_csv(std::ostream& os, const MetricsSeries& series);

}  // namespace ftmesh::trace
