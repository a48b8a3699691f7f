#include "ftmesh/analysis/saturation.hpp"

#include <stdexcept>

namespace ftmesh::analysis {

SaturationSearch::SaturationSearch(const core::SimConfig& base,
                                   const SaturationOptions& opts)
    : base_(base), opts_(opts), lo_(opts.lo), hi_(opts.hi) {
  if (!(opts.lo > 0.0) || !(opts.hi > opts.lo)) {
    throw std::invalid_argument("saturation bracket must satisfy 0 < lo < hi");
  }
  result_.rate = lo_;
}

double SaturationSearch::probe_rate() const noexcept {
  return result_.simulations == 0 ? lo_ : 0.5 * (lo_ + hi_);
}

core::SimConfig SaturationSearch::probe() const {
  core::SimConfig cfg = base_;
  cfg.injection_rate = probe_rate();
  return cfg;
}

void SaturationSearch::record(double accepted_fraction) {
  const double rate = probe_rate();
  const bool first = result_.simulations++ == 0;
  if (accepted_fraction >= opts_.threshold) {
    lo_ = rate;
    result_.accepted = accepted_fraction;
  } else if (first) {
    // Already saturated at the bracket floor; report it directly.
    result_.accepted = accepted_fraction;
    done_ = true;
  } else {
    hi_ = rate;
  }
  result_.rate = lo_;
  if (result_.simulations > opts_.iterations) done_ = true;
}

SaturationResult find_saturation_rate(const core::SimConfig& base,
                                      const SaturationOptions& opts) {
  SaturationSearch search(base, opts);
  while (!search.done()) {
    core::Simulator sim(search.probe());
    search.record(sim.run().throughput.accepted_fraction);
  }
  return search.result();
}

}  // namespace ftmesh::analysis
