#pragma once
// Saturation-point finder.
//
// The paper quotes saturation rates per algorithm ("NHop starts to
// saturate after 0.066 and PHop shows signs of saturation at about
// 0.045").  This utility locates the knee empirically: the largest
// injection rate at which the network still accepts at least `threshold`
// of the offered traffic, found by bisection over short simulations.

#include "ftmesh/core/simulator.hpp"

namespace ftmesh::analysis {

struct SaturationResult {
  double rate = 0.0;      ///< estimated saturation rate (msg/node/cycle)
  double accepted = 0.0;  ///< accepted/offered at that rate
  int simulations = 0;    ///< simulator runs spent
};

struct SaturationOptions {
  double lo = 0.0001;      ///< bracket: must be below saturation
  double hi = 0.02;        ///< bracket: must be above saturation
  double threshold = 0.95; ///< accepted/offered counted as "not saturated"
  int iterations = 7;      ///< bisection steps
};

/// The bisection as a stepper, for callers that run the probes themselves
/// (a pooled driver advances many searches one probe per round):
///
///   SaturationSearch s(base, opts);
///   while (!s.done()) s.record(accepted_fraction_of(s.probe()));
///   use(s.result());
///
/// The first probe is the bracket floor; if it is already saturated the
/// search stops there, else `iterations` midpoint probes follow.
class SaturationSearch {
 public:
  /// Throws std::invalid_argument unless 0 < opts.lo < opts.hi.
  SaturationSearch(const core::SimConfig& base, const SaturationOptions& opts);

  [[nodiscard]] bool done() const noexcept { return done_; }
  /// The config to simulate next: `base` at the next probe rate.
  [[nodiscard]] core::SimConfig probe() const;
  /// Feeds back the probe's accepted/offered fraction.
  void record(double accepted_fraction);
  [[nodiscard]] const SaturationResult& result() const noexcept {
    return result_;
  }

 private:
  [[nodiscard]] double probe_rate() const noexcept;

  core::SimConfig base_;
  SaturationOptions opts_;
  double lo_;
  double hi_;
  SaturationResult result_;  ///< rate = lo_, accepted = its fraction
  bool done_ = false;
};

/// Bisects on injection rate.  `base.injection_rate` is overwritten per
/// probe; everything else (mesh, algorithm, faults, cycles, seed) is taken
/// from `base`.
SaturationResult find_saturation_rate(const core::SimConfig& base,
                                      const SaturationOptions& opts = {});

}  // namespace ftmesh::analysis
