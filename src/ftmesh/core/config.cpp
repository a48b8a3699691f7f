#include "ftmesh/core/config.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "ftmesh/inject/fault_injector.hpp"
#include "ftmesh/inject/fault_schedule.hpp"
#include "ftmesh/router/flit_ring.hpp"
#include "ftmesh/routing/registry.hpp"
#include "ftmesh/topology/mesh.hpp"

namespace ftmesh::core {

void SimConfig::validate() const {
  if (width < 2 || height < 2) {
    throw std::invalid_argument("mesh sides must be >= 2");
  }
  if (total_vcs < 1 || total_vcs > routing::kMaxVcs) {
    throw std::invalid_argument("total_vcs out of range");
  }
  if (!routing::is_algorithm_name(algorithm)) {
    throw std::invalid_argument("unknown algorithm: " + algorithm);
  }
  if (buffer_depth < 1) throw std::invalid_argument("buffer_depth must be >= 1");
  // Input buffers index their flits in 16 bits (router::FlitRing).
  if (buffer_depth > router::FlitRing::kMaxCapacity) {
    throw std::invalid_argument("buffer_depth must be <= " +
                                std::to_string(router::FlitRing::kMaxCapacity));
  }
  if (injection_vcs < 1 || injection_vcs > total_vcs) {
    throw std::invalid_argument("injection_vcs out of range");
  }
  if (message_length < 1) throw std::invalid_argument("message_length must be >= 1");
  // A source injects at most injection_vcs messages per cycle; a larger
  // (or infinite) Poisson rate would also stall the arrival clock, whose
  // exponential gaps round to 0 against the current cycle.
  if (!std::isfinite(injection_rate) ||
      injection_rate > static_cast<double>(injection_vcs)) {
    throw std::invalid_argument(
        "injection_rate must be finite and <= injection_vcs (" +
        std::to_string(injection_vcs) + ") messages/node/cycle");
  }
  // Retired kernel switches: their keys still load, at the default only.
  if (scan_mode != "active") {
    throw std::invalid_argument(
        "scan_mode must be 'active': the full reference scan was removed");
  }
  if (!recycle_messages) {
    throw std::invalid_argument(
        "recycle_messages must be 1: append-only message storage was removed");
  }
  if (!shard_alloc) {
    throw std::invalid_argument(
        "shard_alloc must be 1: message slots come from one pool");
  }
  if (!route_cache) {
    throw std::invalid_argument(
        "route_cache must be 1: the uncached routing path was removed");
  }
  if (tiles < 1) throw std::invalid_argument("tiles must be >= 1");
  if (fault_count < 0 || fault_count >= width * height) {
    throw std::invalid_argument("fault_count out of range");
  }
  if (link_fault_count < 0 ||
      link_fault_count > height * (width - 1) + width * (height - 1)) {
    throw std::invalid_argument("link_fault_count out of range");
  }
  if (warmup_cycles >= total_cycles) {
    throw std::invalid_argument("warmup must end before total_cycles");
  }
  if (misroute_limit < 0) throw std::invalid_argument("misroute_limit < 0");
  if (fault_max_retries < 0) {
    throw std::invalid_argument("fault_max_retries must be >= 0");
  }
  if (fault_max_retries > inject::kMaxRetryBudget) {
    throw std::invalid_argument("fault_max_retries must be <= " +
                                std::to_string(inject::kMaxRetryBudget));
  }
  if (fault_retry_backoff < 1) {
    throw std::invalid_argument("fault_retry_backoff must be >= 1");
  }
  if (!fault_schedule.empty()) {
    // Parse errors surface at configuration time, not mid-run.
    inject::FaultSchedule::validate_spec(fault_schedule,
                                         topology::Mesh(width, height));
  }
}

std::vector<std::string> SimConfig::warnings() const {
  std::vector<std::string> out;
  if (injection_rate == 0.0) {
    out.push_back(
        "injection_rate is 0, which now means an idle network (no offered "
        "traffic); legacy configs used 0 for saturated sources — use a "
        "negative rate for saturation");
  }
  return out;
}

}  // namespace ftmesh::core
