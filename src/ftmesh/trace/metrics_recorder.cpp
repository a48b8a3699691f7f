#include "ftmesh/trace/metrics_recorder.hpp"

#include <cassert>
#include <ostream>

#include "ftmesh/report/csv.hpp"
#include "ftmesh/report/table.hpp"
#include "ftmesh/router/network.hpp"

namespace ftmesh::trace {

MetricsRecorder::MetricsRecorder(std::uint64_t interval,
                                 const router::Network& net) {
  assert(interval >= 1);
  series_.interval = interval;
  const auto& layout = net.algorithm().layout();
  for (int vc = 0; vc < layout.total(); ++vc) {
    if (layout.at(vc).role == routing::VcRole::BcRing) ring_vcs_.push_back(vc);
  }
}

void MetricsRecorder::on_cycle(const router::Network& net) {
  if (net.cycle() % series_.interval != 0) return;

  MetricsSample s;
  s.cycle = net.cycle();

  const router::Counters d = net.counters() - prev_;
  prev_ = net.counters();

  s.delivered_messages = d.messages_delivered;
  const double nodes = static_cast<double>(net.faults().active_count());
  if (nodes > 0.0) {
    s.accepted_flits_per_node_cycle =
        static_cast<double>(d.flits_delivered) /
        (nodes * static_cast<double>(series_.interval));
  }
  if (s.delivered_messages > 0) {
    s.mean_latency = static_cast<double>(d.latency_sum) /
                     static_cast<double>(s.delivered_messages);
  }
  if (d.cache_lookups > 0) {
    s.cache_hit_rate = static_cast<double>(d.cache_hits) /
                       static_cast<double>(d.cache_lookups);
  }

  s.flits_in_flight = net.flits_in_network();
  s.route_nodes = net.active_route_nodes();
  s.switch_nodes = net.active_switch_nodes();
  s.inject_nodes = net.active_inject_nodes();
  s.link_regs = net.full_link_registers();
  for (const int vc : ring_vcs_) {
    s.ring_vcs_busy += net.link_vc_allocated()[static_cast<std::size_t>(vc)];
  }

  series_.samples.push_back(s);
}

const std::vector<std::string>& metrics_csv_columns() {
  static const std::vector<std::string> kColumns = {
      "cycle",           "delivered_messages", "accepted_flits_per_node_cycle",
      "mean_latency",    "cache_hit_rate",     "flits_in_flight",
      "route_nodes",     "switch_nodes",       "inject_nodes",
      "link_regs",       "ring_vcs_busy"};
  return kColumns;
}

std::vector<std::string> metrics_csv_cells(const MetricsSample& s) {
  return {std::to_string(s.cycle), std::to_string(s.delivered_messages),
          report::format_double(s.accepted_flits_per_node_cycle, 6),
          report::format_double(s.mean_latency, 3),
          report::format_double(s.cache_hit_rate, 4),
          std::to_string(s.flits_in_flight), std::to_string(s.route_nodes),
          std::to_string(s.switch_nodes), std::to_string(s.inject_nodes),
          std::to_string(s.link_regs), std::to_string(s.ring_vcs_busy)};
}

void write_metrics_csv(std::ostream& os, const MetricsSeries& series) {
  report::CsvWriter csv(os);
  csv.row(metrics_csv_columns());
  for (const auto& s : series.samples) csv.row(metrics_csv_cells(s));
}

}  // namespace ftmesh::trace
