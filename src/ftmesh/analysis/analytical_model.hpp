#pragma once
// A first-order analytical latency model for adaptive wormhole routing on a
// fault-free k x k mesh under uniform traffic — the paper's stated future
// work ("driving an analytical modeling approach ...").
//
// The model is the standard open-queueing approximation used in the
// interconnection-network literature (cf. Duato et al., ch. 9):
//   * mean message distance  d = 2 (k^2 - 1) / (3k)
//   * base latency           T0 = d + L            (path + serialisation)
//   * channel utilisation    rho = lambda N L d / E  (E = directed links)
//   * waiting time           W = T0 * rho / (2 (1 - rho) V)
// with V virtual channels per physical channel as a contention divisor.
// It predicts the latency *shape* (flat region + knee) and the saturation
// point, not exact values; `paper_figures --figures analytic` quantifies
// the gap.

#include <cstdint>

namespace ftmesh::analysis {

class AnalyticalModel {
 public:
  /// k x k mesh, L-flit messages, V virtual channels per physical channel.
  AnalyticalModel(int k, std::uint32_t message_length, int vcs);

  /// Mean source-to-sink distance under uniform traffic.
  [[nodiscard]] double mean_distance() const noexcept { return distance_; }

  /// Zero-load latency in cycles.
  [[nodiscard]] double zero_load_latency() const noexcept;

  /// Aggregate channel utilisation at `rate` messages/node/cycle.
  [[nodiscard]] double utilization(double rate) const noexcept;

  /// Injection rate (messages/node/cycle) at which utilisation reaches 1.
  [[nodiscard]] double saturation_rate() const noexcept;

  /// Predicted mean latency at `rate`; returns +inf past saturation.
  [[nodiscard]] double predict_latency(double rate) const noexcept;

 private:
  int k_;
  double length_;
  double vcs_;
  double distance_;
  double directed_links_;
};

}  // namespace ftmesh::analysis
