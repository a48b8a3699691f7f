#include "ftmesh/report/json.hpp"

#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace ftmesh::report {

void JsonWriter::separator() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!need_comma_.empty()) {
    if (need_comma_.back() == '1') *os_ << ',';
    need_comma_.back() = '1';
  }
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  *os_ << '{';
  need_comma_.push_back('0');
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  need_comma_.pop_back();
  *os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separator();
  *os_ << '[';
  need_comma_.push_back('0');
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  need_comma_.pop_back();
  *os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  separator();
  *os_ << '"' << escape(name) << "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  separator();
  *os_ << '"' << escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separator();
  std::ostringstream tmp;
  tmp << std::setprecision(12) << v;
  *os_ << tmp.str();
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separator();
  *os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(int v) {
  separator();
  *os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separator();
  *os_ << (v ? "true" : "false");
  return *this;
}

std::string JsonWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void write_result_json(std::ostream& os, const core::SimConfig& cfg,
                       const core::SimResult& r) {
  JsonWriter w(os);
  w.begin_object();
  w.key("config").begin_object();
  w.key("width").value(cfg.width);
  w.key("height").value(cfg.height);
  w.key("algorithm").value(cfg.algorithm);
  w.key("traffic").value(cfg.traffic);
  w.key("injection_rate").value(cfg.injection_rate);
  w.key("message_length").value(static_cast<std::uint64_t>(cfg.message_length));
  w.key("total_vcs").value(cfg.total_vcs);
  w.key("fault_count").value(cfg.fault_count);
  w.key("seed").value(cfg.seed);
  w.key("total_cycles").value(cfg.total_cycles);
  w.key("warmup_cycles").value(cfg.warmup_cycles);
  if (!cfg.fault_schedule.empty()) {
    w.key("fault_schedule").value(cfg.fault_schedule);
    w.key("fault_max_retries").value(cfg.fault_max_retries);
    w.key("fault_retry_backoff").value(cfg.fault_retry_backoff);
  }
  w.end_object();

  w.key("latency").begin_object();
  w.key("delivered").value(r.latency.delivered);
  w.key("generated").value(r.latency.generated);
  w.key("undelivered").value(r.latency.undelivered);
  w.key("mean").value(r.latency.mean);
  w.key("mean_network").value(r.latency.mean_network);
  w.key("p50").value(r.latency.p50);
  w.key("p95").value(r.latency.p95);
  w.key("p99").value(r.latency.p99);
  w.key("max").value(r.latency.max);
  w.key("mean_hops").value(r.latency.mean_hops);
  w.key("mean_misroutes").value(r.latency.mean_misroutes);
  w.key("ring_message_fraction").value(r.latency.ring_message_fraction);
  w.end_object();

  w.key("throughput").begin_object();
  w.key("offered").value(r.throughput.offered_flits_per_node_cycle);
  w.key("accepted").value(r.throughput.accepted_flits_per_node_cycle);
  w.key("accepted_fraction").value(r.throughput.accepted_fraction);
  w.end_object();

  w.key("faults").begin_object();
  w.key("regions").value(r.fault_regions);
  w.key("faulty_nodes").value(r.faulty_nodes);
  w.key("deactivated_nodes").value(r.deactivated_nodes);
  w.end_object();

  if (!r.vc_usage.percent.empty()) {
    w.key("vc_usage_percent").begin_array();
    for (const double p : r.vc_usage.percent) w.value(p);
    w.end_array();
  }

  if (r.reliability.enabled) {
    const auto& rel = r.reliability;
    w.key("reliability").begin_object();
    w.key("generated").value(rel.generated);
    w.key("delivered").value(rel.delivered);
    w.key("aborted").value(rel.aborted);
    w.key("in_flight_end").value(rel.in_flight_end);
    w.key("retransmissions").value(rel.retransmissions);
    w.key("messages_flushed").value(rel.messages_flushed);
    w.key("fault_events_applied").value(rel.fault_events_applied);
    w.key("fault_events_rejected").value(rel.fault_events_rejected);
    w.key("node_failures").value(rel.node_failures);
    w.key("node_repairs").value(rel.node_repairs);
    w.key("link_failures").value(rel.link_failures);
    w.key("link_repairs").value(rel.link_repairs);
    w.key("rings_reused").value(rel.rings_reused);
    w.key("rings_rebuilt").value(rel.rings_rebuilt);
    w.key("recovered_messages").value(rel.recovered_messages);
    w.key("recovery_latency_mean").value(rel.recovery_latency_mean);
    w.key("recovery_latency_p95").value(rel.recovery_latency_p95);
    w.key("recovery_latency_max").value(rel.recovery_latency_max);
    w.key("post_fault_throughput").value(rel.post_fault_throughput);
    w.end_object();
  }

  if (r.kernel.enabled) {
    // Cycle-kernel counters (collect_kernel_stats).  The retired
    // scheduling knobs (tiles, step threads, ...) are deliberately absent:
    // the kernel ignores them, and the golden determinism corpus relies on
    // reports that set them being byte-identical to reports that do not.
    const auto& k = r.kernel;
    w.key("kernel").begin_object();
    w.key("cache_lookups").value(k.cache_lookups);
    w.key("cache_hits").value(k.cache_hits);
    w.key("cache_hit_rate").value(k.cache_hit_rate);
    w.key("cache_invalidations").value(k.cache_invalidations);
    w.key("samples").value(k.samples);
    w.key("mean_route_nodes").value(k.mean_route_nodes);
    w.key("mean_switch_nodes").value(k.mean_switch_nodes);
    w.key("mean_inject_nodes").value(k.mean_inject_nodes);
    w.key("mean_link_regs").value(k.mean_link_regs);
    w.end_object();
  }

  if (!r.metrics.samples.empty()) {
    w.key("metrics").begin_object();
    w.key("interval").value(r.metrics.interval);
    w.key("samples").begin_array();
    for (const auto& s : r.metrics.samples) {
      w.begin_object();
      w.key("cycle").value(s.cycle);
      w.key("delivered_messages").value(s.delivered_messages);
      w.key("accepted").value(s.accepted_flits_per_node_cycle);
      w.key("mean_latency").value(s.mean_latency);
      w.key("cache_hit_rate").value(s.cache_hit_rate);
      w.key("in_flight").value(s.flits_in_flight);
      w.key("route_nodes").value(s.route_nodes);
      w.key("switch_nodes").value(s.switch_nodes);
      w.key("inject_nodes").value(s.inject_nodes);
      w.key("link_regs").value(s.link_regs);
      w.key("ring_vcs_busy").value(s.ring_vcs_busy);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.key("deadlock").value(r.deadlock);
  w.key("cycles_run").value(r.cycles_run);
  w.end_object();
  os << '\n';
}

}  // namespace ftmesh::report
