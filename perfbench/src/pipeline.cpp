#include "pipeline.hpp"

#include <sstream>
#include <stdexcept>

namespace perfbench {

using namespace ftmesh;

Pipeline::Pipeline(core::SimConfig cfg, Tracer& tracer)
    : cfg_(std::move(cfg)), tracer_(tracer) {
  if (cfg_.metrics_interval > 0) {
    throw std::invalid_argument("perfbench: metrics recording is not mirrored");
  }
  cfg_.validate();
  const sim::Rng root(cfg_.seed);
  {
    auto s = tracer_.scope(Layer::SetupFaults);
    mesh_ = std::make_unique<topology::Mesh>(cfg_.width, cfg_.height);
    if (!cfg_.fault_blocks.empty()) {
      faults_ = std::make_unique<fault::FaultMap>(
          fault::FaultMap::from_blocks(*mesh_, cfg_.fault_blocks));
    } else if (cfg_.fault_count > 0 || cfg_.link_fault_count > 0) {
      auto fault_rng = root.derive(0xFA);
      faults_ = std::make_unique<fault::FaultMap>(fault::FaultMap::random(
          *mesh_, cfg_.fault_count, cfg_.link_fault_count, fault_rng));
    } else {
      faults_ = std::make_unique<fault::FaultMap>(*mesh_);
    }
    rings_ = std::make_unique<fault::FRingSet>(*faults_);
  }
  {
    auto s = tracer_.scope(Layer::SetupAlgorithm);
    routing::RoutingOptions opts;
    opts.total_vcs = cfg_.total_vcs;
    opts.misroute_limit = cfg_.misroute_limit;
    opts.xy_escape = cfg_.xy_escape;
    opts.selection = cfg_.selection;
    algorithm_ = routing::make_algorithm(cfg_.algorithm, *mesh_, *faults_, *rings_, opts);
    pattern_ = traffic::make_pattern(cfg_.traffic, *faults_);
  }
  {
    auto s = tracer_.scope(Layer::SetupNetwork);
    router::NetworkConfig ncfg;
    ncfg.buffer_depth = cfg_.buffer_depth;
    ncfg.injection_vcs = cfg_.injection_vcs;
    ncfg.selection = cfg_.selection;
    ncfg.scan_mode =
        cfg_.scan_mode == "full" ? router::ScanMode::Full : router::ScanMode::Active;
    ncfg.route_cache = cfg_.route_cache;
    ncfg.tiles = cfg_.tiles;
    ncfg.step_threads = cfg_.step_threads;
    ncfg.recycle_messages = cfg_.recycle_messages;
    ncfg.shard_alloc = cfg_.shard_alloc;
    ncfg.collect_vc_usage = cfg_.collect_vc_usage;
    ncfg.collect_traffic_map = cfg_.collect_traffic_map;
    ncfg.collect_kernel_stats = cfg_.collect_kernel_stats;
    ncfg.watchdog_patience = cfg_.watchdog_patience;
    network_ = std::make_unique<router::Network>(*mesh_, *faults_, *algorithm_, ncfg,
                                                 root.derive(0x17));
    generator_ = std::make_unique<traffic::Generator>(
        *faults_, *pattern_, cfg_.injection_rate, cfg_.message_length, root.derive(0x7A));
    if (!cfg_.fault_schedule.empty()) {
      inject::InjectConfig icfg;
      icfg.max_retries = cfg_.fault_max_retries;
      icfg.retry_backoff = cfg_.fault_retry_backoff;
      injector_ = std::make_unique<inject::FaultInjector>(
          inject::FaultSchedule::from_spec(cfg_.fault_schedule, *mesh_, root.derive(0xD1)),
          *faults_, *rings_, icfg);
    }
  }
}

Pipeline::~Pipeline() = default;

void Pipeline::post_reconfigure() {
  auto s = tracer_.scope(Layer::InjectReconfigure);
  network_->revalidate_ring_state(*rings_);
  network_->reset_watchdog();
  network_->on_fault_change();
  algorithm_->on_fault_change();
  pattern_->refresh();
  generator_->refresh(static_cast<double>(network_->cycle()));
}

void Pipeline::step() {
  if (network_->cycle() == cfg_.warmup_cycles) network_->begin_measurement();
  if (injector_) {
    bool changed = false;
    {
      auto s = tracer_.scope(Layer::InjectTick);
      changed = injector_->tick(*network_);
    }
    if (changed) post_reconfigure();
  }
  {
    auto s = tracer_.scope(Layer::TrafficTick);
    generator_->tick(*network_);
  }
  auto s = tracer_.scope(Layer::RouterStep);
  network_->step();
}

core::SimResult Pipeline::run() {
  while (network_->cycle() < cfg_.total_cycles) {
    step();
    if (network_->watchdog().tripped()) break;
  }
  return snapshot();
}

std::uint64_t Pipeline::drain(std::uint64_t max_extra_cycles) {
  std::uint64_t extra = 0;
  while (extra < max_extra_cycles && !network_->watchdog().tripped()) {
    const bool engine_idle = !injector_ || injector_->quiescent();
    if (network_->drained() && engine_idle) break;
    if (injector_) {
      bool changed = false;
      {
        auto s = tracer_.scope(Layer::InjectTick);
        changed = injector_->tick(*network_);
      }
      if (changed) post_reconfigure();
    }
    {
      auto s = tracer_.scope(Layer::RouterStep);
      network_->step();
    }
    ++extra;
  }
  return extra;
}

core::SimResult Pipeline::snapshot() {
  auto s = tracer_.scope(Layer::StatsReduce);
  core::SimResult r;
  r.latency = stats::summarize_latency(*network_, cfg_.warmup_cycles);
  r.throughput = stats::summarize_throughput(*network_);
  if (cfg_.collect_vc_usage) r.vc_usage = stats::summarize_vc_usage(*network_);
  if (cfg_.collect_traffic_map) {
    r.traffic_split = stats::summarize_traffic_split(*network_, *rings_);
  }
  r.adaptivity.decisions = network_->measured_route_decisions();
  if (r.adaptivity.decisions > 0) {
    const auto n = static_cast<double>(r.adaptivity.decisions);
    r.adaptivity.mean_offered =
        static_cast<double>(network_->measured_candidates_offered()) / n;
    r.adaptivity.mean_free = static_cast<double>(network_->measured_candidates_free()) / n;
  }
  if (injector_) r.reliability = stats::summarize_reliability(*network_, injector_->log());
  if (cfg_.collect_kernel_stats) r.kernel = stats::summarize_kernel(*network_);
  r.deadlock = network_->watchdog().tripped();
  r.cycles_run = network_->cycle();
  r.fault_regions = static_cast<int>(faults_->regions().size());
  r.faulty_nodes = faults_->faulty_count();
  r.deactivated_nodes = faults_->deactivated_count();
  return r;
}

std::string fingerprint(const core::SimResult& r) {
  std::ostringstream os;
  os << std::hexfloat;
  const auto put = [&os](const auto&... v) { ((os << v << ';'), ...); };
  const auto& l = r.latency;
  put(l.delivered, l.generated, l.undelivered, l.mean, l.mean_network, l.p50, l.p95, l.p99,
      l.max, l.mean_hops, l.mean_misroutes, l.ring_message_fraction);
  const auto& t = r.throughput;
  put(t.offered_flits_per_node_cycle, t.accepted_flits_per_node_cycle, t.accepted_fraction);
  const auto& a = r.adaptivity;
  put(a.decisions, a.mean_offered, a.mean_free);
  const auto& v = r.reliability;
  put(v.enabled, v.generated, v.delivered, v.aborted, v.in_flight_end, v.retransmissions,
      v.messages_flushed, v.fault_events_applied, v.fault_events_rejected, v.node_failures,
      v.node_repairs, v.link_failures, v.link_repairs, v.rings_reused, v.rings_rebuilt,
      v.recovered_messages, v.recovery_latency_mean, v.recovery_latency_p95,
      v.recovery_latency_max, v.post_fault_throughput);
  const auto& k = r.kernel;
  put(k.enabled, k.cache_lookups, k.cache_hits, k.cache_invalidations, k.cache_hit_rate,
      k.samples, k.mean_route_nodes, k.mean_switch_nodes, k.mean_inject_nodes,
      k.mean_link_regs);
  for (const double u : r.vc_usage.percent) put(u);
  const auto& f = r.traffic_split;
  put(f.fring_mean_percent, f.other_mean_percent, f.fring_peak_percent, f.other_peak_percent,
      f.fring_nodes, f.other_nodes);
  put(r.metrics.samples.size(), r.deadlock, r.cycles_run, r.fault_regions, r.faulty_nodes,
      r.deactivated_nodes);
  return os.str();
}

}  // namespace perfbench
