#include "ftmesh/analysis/analytical_model.hpp"

#include <limits>
#include <stdexcept>

namespace ftmesh::analysis {

AnalyticalModel::AnalyticalModel(int k, std::uint32_t message_length, int vcs)
    : k_(k), length_(static_cast<double>(message_length)), vcs_(vcs) {
  if (k < 2 || message_length < 1 || vcs < 1) {
    throw std::invalid_argument("invalid analytical model parameters");
  }
  // E|u - v| over independent uniform u, v in {0..k-1} is (k^2 - 1) / (3k);
  // two dimensions double it.
  distance_ = 2.0 * (static_cast<double>(k) * k - 1.0) / (3.0 * k);
  // 2k(k-1) bidirectional links -> 4k(k-1) directed channels.
  directed_links_ = 4.0 * k * (k - 1.0);
}

double AnalyticalModel::zero_load_latency() const noexcept {
  return distance_ + length_;
}

double AnalyticalModel::utilization(double rate) const noexcept {
  const double nodes = static_cast<double>(k_) * k_;
  return rate * nodes * length_ * distance_ / directed_links_;
}

double AnalyticalModel::saturation_rate() const noexcept {
  const double nodes = static_cast<double>(k_) * k_;
  return directed_links_ / (nodes * length_ * distance_);
}

double AnalyticalModel::predict_latency(double rate) const noexcept {
  const double rho = utilization(rate);
  if (rho >= 1.0) return std::numeric_limits<double>::infinity();
  const double wait = zero_load_latency() * rho / (2.0 * (1.0 - rho) * vcs_);
  return zero_load_latency() + wait;
}

}  // namespace ftmesh::analysis
