#include "ftmesh/core/simulator.hpp"

namespace ftmesh::core {

fault::FaultMap initial_fault_map(const SimConfig& cfg,
                                  const topology::Mesh& mesh) {
  if (!cfg.fault_blocks.empty()) {
    return fault::FaultMap::from_blocks(mesh, cfg.fault_blocks);
  }
  if (cfg.fault_count > 0 || cfg.link_fault_count > 0) {
    auto fault_rng = sim::Rng(cfg.seed).derive(0xFA);
    return fault::FaultMap::random(mesh, cfg.fault_count, cfg.link_fault_count,
                                   fault_rng);
  }
  return fault::FaultMap(mesh);
}

Simulator::Simulator(SimConfig cfg)
    : cfg_(std::move(cfg)), mesh_(cfg_.width, cfg_.height) {
  cfg_.validate();

  const sim::Rng root(cfg_.seed);
  faults_ = std::make_unique<fault::FaultMap>(initial_fault_map(cfg_, mesh_));
  rings_ = std::make_unique<fault::FRingSet>(*faults_);

  routing::RoutingOptions opts;
  opts.total_vcs = cfg_.total_vcs;
  opts.misroute_limit = cfg_.misroute_limit;
  opts.xy_escape = cfg_.xy_escape;
  opts.selection = cfg_.selection;
  algorithm_ =
      routing::make_algorithm(cfg_.algorithm, mesh_, *faults_, *rings_, opts);

  pattern_ = traffic::make_pattern(cfg_.traffic, *faults_);

  router::NetworkConfig ncfg;
  ncfg.buffer_depth = cfg_.buffer_depth;
  ncfg.injection_vcs = cfg_.injection_vcs;
  ncfg.selection = cfg_.selection;
  ncfg.route_cache = cfg_.route_cache;
  ncfg.collect_vc_usage = cfg_.collect_vc_usage;
  ncfg.collect_traffic_map = cfg_.collect_traffic_map;
  ncfg.collect_kernel_stats = cfg_.collect_kernel_stats;
  ncfg.watchdog_patience = cfg_.watchdog_patience;
  network_ = std::make_unique<router::Network>(mesh_, *faults_, *algorithm_,
                                               ncfg, root.derive(0x17));

  generator_ = std::make_unique<traffic::Generator>(
      *faults_, *pattern_, cfg_.injection_rate, cfg_.message_length,
      root.derive(0x7A));

  if (!cfg_.fault_schedule.empty()) {
    inject::InjectConfig icfg;
    icfg.max_retries = cfg_.fault_max_retries;
    icfg.retry_backoff = cfg_.fault_retry_backoff;
    injector_ = std::make_unique<inject::FaultInjector>(
        inject::FaultSchedule::from_spec(cfg_.fault_schedule, mesh_,
                                         root.derive(0xD1)),
        *faults_, *rings_, icfg);
  }

  if (cfg_.metrics_interval > 0) {
    metrics_ =
        std::make_unique<trace::MetricsRecorder>(cfg_.metrics_interval, *network_);
  }
}

void Simulator::post_reconfigure() {
  network_->revalidate_ring_state(*rings_);
  network_->reset_watchdog();
  network_->on_fault_change();  // drop memoized candidate sets
  algorithm_->on_fault_change();
  pattern_->refresh();
  generator_->refresh(static_cast<double>(network_->cycle()));
}

void Simulator::step() {
  if (network_->cycle() == cfg_.warmup_cycles) network_->begin_measurement();
  if (injector_ && injector_->tick(*network_)) post_reconfigure();
  generator_->tick(*network_);
  network_->step();
  if (metrics_) metrics_->on_cycle(*network_);
}

SimResult Simulator::run() {
  while (network_->cycle() < cfg_.total_cycles) {
    step();
    if (network_->watchdog().tripped()) break;
  }
  return snapshot();
}

std::uint64_t Simulator::drain(std::uint64_t max_extra_cycles) {
  std::uint64_t extra = 0;
  while (extra < max_extra_cycles && !network_->watchdog().tripped()) {
    const bool engine_idle = !injector_ || injector_->quiescent();
    if (network_->drained() && engine_idle) break;
    if (injector_ && injector_->tick(*network_)) post_reconfigure();
    network_->step();
    if (metrics_) metrics_->on_cycle(*network_);
    ++extra;
  }
  return extra;
}

SimResult Simulator::snapshot() const {
  SimResult r;
  r.latency = stats::summarize_latency(*network_, cfg_.warmup_cycles);
  r.throughput = stats::summarize_throughput(*network_);
  if (cfg_.collect_vc_usage) r.vc_usage = stats::summarize_vc_usage(*network_);
  if (cfg_.collect_traffic_map) {
    r.node_traffic = network_->node_traffic();
    r.traffic_split =
        stats::summarize_traffic_split(r.node_traffic, *faults_, *rings_);
  }
  r.adaptivity.decisions = network_->measured_route_decisions();
  if (r.adaptivity.decisions > 0) {
    const auto n = static_cast<double>(r.adaptivity.decisions);
    r.adaptivity.mean_offered =
        static_cast<double>(network_->measured_candidates_offered()) / n;
    r.adaptivity.mean_free =
        static_cast<double>(network_->measured_candidates_free()) / n;
  }
  if (injector_) {
    r.reliability = stats::summarize_reliability(*network_, injector_->log());
  }
  if (cfg_.collect_kernel_stats) {
    r.kernel = stats::summarize_kernel(*network_);
  }
  if (metrics_) r.metrics = metrics_->series();
  r.deadlock = network_->watchdog().tripped();
  r.cycles_run = network_->cycle();
  r.fault_regions = static_cast<int>(faults_->regions().size());
  r.faulty_nodes = faults_->faulty_count();
  r.deactivated_nodes = faults_->deactivated_count();
  return r;
}

}  // namespace ftmesh::core
