#include "ftmesh/traffic/generator.hpp"

namespace ftmesh::traffic {

Generator::Generator(const fault::FaultMap& faults,
                     const TrafficPattern& pattern, double rate,
                     std::uint32_t message_length, sim::Rng rng)
    : faults_(&faults),
      pattern_(&pattern),
      rate_(rate),
      length_(message_length),
      rng_(rng),
      sources_(faults.active_nodes()) {
  if (rate_ > 0.0) {
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      arrivals_.schedule(rng_.exponential(rate_), i);
    }
  }
}

void Generator::refresh(double now) {
  sources_ = faults_->active_nodes();
  if (rate_ <= 0.0) return;
  arrivals_.clear();
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    arrivals_.schedule(now + rng_.exponential(rate_), i);
  }
}

void Generator::tick(router::Network& net) {
  if (idle()) return;
  if (saturated()) {
    // Keep one message queued per source: it re-offers as soon as the
    // injection channel accepts the previous message.
    for (const auto src : sources_) {
      if (net.source_queue_length(src) == 0) {
        if (const auto dst = pattern_->pick(src, rng_)) {
          net.create_message(src, *dst, length_);
          ++generated_;
        }
      }
    }
    return;
  }
  const auto now = static_cast<double>(net.cycle());
  while (arrivals_.due(now)) {
    const auto event = arrivals_.pop();
    const auto src = sources_[event.payload];
    arrivals_.schedule(event.time + rng_.exponential(rate_), event.payload);
    if (const auto dst = pattern_->pick(src, rng_)) {
      net.create_message(src, *dst, length_);
      ++generated_;
    }
  }
}

}  // namespace ftmesh::traffic
