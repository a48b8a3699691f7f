#include "ftmesh/core/experiment.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "ftmesh/core/thread_pool.hpp"
#include "ftmesh/sim/rng.hpp"

namespace ftmesh::core {

namespace {

/// Expected simulation cost of one batch cell, in arbitrary comparable
/// units: traffic volume (rate × cycles × nodes × message length) scaled
/// up for fault handling.  Saturated cells (rate < 0: sources always
/// ready) are the heaviest per cycle, so they get the source-always-on
/// rate of 1.  Only the *ordering* of the heuristic matters — it decides
/// which cells the self-scheduling workers start first.
double expected_cost(const SimConfig& c) {
  const double rate = c.injection_rate < 0.0 ? 1.0 : c.injection_rate;
  const double nodes = static_cast<double>(c.width) *
                       static_cast<double>(c.height);
  const double fault_factor = 1.0 + 0.1 * static_cast<double>(c.fault_count);
  return rate * static_cast<double>(c.total_cycles) * nodes *
         static_cast<double>(c.message_length) * fault_factor;
}

}  // namespace

SimResult run_one(const SimConfig& config, bool drain) {
  try {
    Simulator sim(config);
    SimResult result = sim.run();
    if (!drain) return result;
    sim.drain();
    return sim.snapshot();
  } catch (const std::runtime_error&) {
    return SimResult{};  // undrawable fault pattern
  }
}

std::vector<SimResult> run_batch(const std::vector<SimConfig>& configs,
                                 int threads, const std::vector<bool>& drain) {
  if (!drain.empty() && drain.size() != configs.size()) {
    throw std::invalid_argument("run_batch: one drain flag per config");
  }
  std::vector<SimResult> results(configs.size());
  // Dispatch longest-expected-first: with self-scheduling workers, a heavy
  // (saturated, faulty) cell picked up last would extend the batch tail by
  // nearly its whole runtime.  The stable sort is a permutation of the
  // *dispatch* order only — results land at their original index, so the
  // output order (and every consumer: campaign CSV rows, sweep tables) is
  // unchanged.
  std::vector<std::size_t> order(configs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return expected_cost(configs[a]) > expected_cost(configs[b]);
                   });
  parallel_for(configs.size(), threads, [&](std::size_t k) {
    const std::size_t i = order[k];
    results[i] = run_one(configs[i], !drain.empty() && drain[i]);
  });
  return results;
}

std::uint64_t pattern_seed(std::uint64_t base_seed, int fault_count,
                           int pattern) {
  if (pattern == 0) return base_seed;
  return sim::counter_hash(base_seed, static_cast<std::uint64_t>(fault_count),
                           static_cast<std::uint64_t>(pattern));
}

std::vector<SimConfig> fault_pattern_sweep(const SimConfig& base, int count) {
  std::vector<SimConfig> configs;
  configs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    SimConfig c = base;
    c.seed = pattern_seed(base.seed, base.fault_count, i);
    configs.push_back(std::move(c));
  }
  return configs;
}

SimResult aggregate(const std::vector<SimResult>& results) {
  // Time-series metrics are deliberately NOT aggregated: samples from runs
  // with different fault patterns are not comparable point-by-point.  The
  // per-run series stay on the individual results (agg.metrics stays empty).
  SimResult agg;
  double n = 0.0;
  for (const auto& r : results) {
    if (r.cycles_run == 0) continue;  // skipped run
    ++n;
    agg.latency.delivered += r.latency.delivered;
    agg.latency.generated += r.latency.generated;
    agg.latency.undelivered += r.latency.undelivered;
    agg.latency.mean += r.latency.mean;
    agg.latency.mean_network += r.latency.mean_network;
    agg.latency.p50 += r.latency.p50;
    agg.latency.p95 += r.latency.p95;
    agg.latency.p99 += r.latency.p99;
    agg.latency.max = std::max(agg.latency.max, r.latency.max);
    agg.latency.mean_hops += r.latency.mean_hops;
    agg.latency.mean_misroutes += r.latency.mean_misroutes;
    agg.latency.ring_message_fraction += r.latency.ring_message_fraction;
    agg.throughput.offered_flits_per_node_cycle +=
        r.throughput.offered_flits_per_node_cycle;
    agg.throughput.accepted_flits_per_node_cycle +=
        r.throughput.accepted_flits_per_node_cycle;
    agg.throughput.accepted_fraction += r.throughput.accepted_fraction;
    agg.adaptivity.mean_offered += r.adaptivity.mean_offered;
    agg.adaptivity.mean_free += r.adaptivity.mean_free;
    agg.adaptivity.decisions += r.adaptivity.decisions;
    agg.deadlock = agg.deadlock || r.deadlock;
    agg.cycles_run += r.cycles_run;
    agg.fault_regions += r.fault_regions;
    agg.faulty_nodes += r.faulty_nodes;
    agg.deactivated_nodes += r.deactivated_nodes;
    if (!r.vc_usage.percent.empty()) {
      if (agg.vc_usage.percent.size() < r.vc_usage.percent.size()) {
        agg.vc_usage.percent.resize(r.vc_usage.percent.size(), 0.0);
      }
      for (std::size_t v = 0; v < r.vc_usage.percent.size(); ++v) {
        agg.vc_usage.percent[v] += r.vc_usage.percent[v];
      }
    }
    agg.traffic_split.fring_mean_percent += r.traffic_split.fring_mean_percent;
    agg.traffic_split.other_mean_percent += r.traffic_split.other_mean_percent;
    agg.traffic_split.fring_peak_percent += r.traffic_split.fring_peak_percent;
    agg.traffic_split.other_peak_percent += r.traffic_split.other_peak_percent;
    agg.traffic_split.fring_nodes += r.traffic_split.fring_nodes;
    agg.traffic_split.other_nodes += r.traffic_split.other_nodes;
    if (r.reliability.enabled) {
      auto& ar = agg.reliability;
      const auto& rr = r.reliability;
      ar.enabled = true;
      ar.generated += rr.generated;
      ar.delivered += rr.delivered;
      ar.aborted += rr.aborted;
      ar.in_flight_end += rr.in_flight_end;
      ar.retransmissions += rr.retransmissions;
      ar.messages_flushed += rr.messages_flushed;
      ar.fault_events_applied += rr.fault_events_applied;
      ar.fault_events_rejected += rr.fault_events_rejected;
      ar.node_failures += rr.node_failures;
      ar.node_repairs += rr.node_repairs;
      ar.link_failures += rr.link_failures;
      ar.link_repairs += rr.link_repairs;
      ar.rings_reused += rr.rings_reused;
      ar.rings_rebuilt += rr.rings_rebuilt;
      ar.recovered_messages += rr.recovered_messages;
      ar.recovery_latency_mean += rr.recovery_latency_mean;
      ar.recovery_latency_p95 += rr.recovery_latency_p95;
      ar.recovery_latency_max =
          std::max(ar.recovery_latency_max, rr.recovery_latency_max);
      ar.post_fault_throughput += rr.post_fault_throughput;
    }
  }
  if (n == 0.0) return agg;
  const auto div = [n](double& v) { v /= n; };
  div(agg.latency.mean);
  div(agg.latency.mean_network);
  div(agg.latency.p50);
  div(agg.latency.p95);
  div(agg.latency.p99);
  div(agg.latency.mean_hops);
  div(agg.latency.mean_misroutes);
  div(agg.latency.ring_message_fraction);
  div(agg.throughput.offered_flits_per_node_cycle);
  div(agg.throughput.accepted_flits_per_node_cycle);
  div(agg.throughput.accepted_fraction);
  div(agg.adaptivity.mean_offered);
  div(agg.adaptivity.mean_free);
  for (auto& v : agg.vc_usage.percent) v /= n;
  div(agg.traffic_split.fring_mean_percent);
  div(agg.traffic_split.other_mean_percent);
  div(agg.traffic_split.fring_peak_percent);
  div(agg.traffic_split.other_peak_percent);
  if (agg.reliability.enabled) {
    div(agg.reliability.recovery_latency_mean);
    div(agg.reliability.recovery_latency_p95);
    div(agg.reliability.post_fault_throughput);
  }
  agg.traffic_split.fring_nodes =
      static_cast<std::size_t>(static_cast<double>(agg.traffic_split.fring_nodes) / n);
  agg.traffic_split.other_nodes =
      static_cast<std::size_t>(static_cast<double>(agg.traffic_split.other_nodes) / n);
  agg.fault_regions = static_cast<int>(static_cast<double>(agg.fault_regions) / n);
  agg.faulty_nodes = static_cast<int>(static_cast<double>(agg.faulty_nodes) / n);
  agg.deactivated_nodes =
      static_cast<int>(static_cast<double>(agg.deactivated_nodes) / n);
  return agg;
}

}  // namespace ftmesh::core
