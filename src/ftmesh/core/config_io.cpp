#include "ftmesh/core/config_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ftmesh::core {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::string blocks_to_string(const std::vector<fault::Rect>& blocks) {
  std::ostringstream os;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (i) os << "; ";
    os << blocks[i].x0 << ',' << blocks[i].y0 << ',' << blocks[i].x1 << ','
       << blocks[i].y1;
  }
  return os.str();
}

/// `v` as text that parses back to exactly `v`: the stream's default
/// six-significant-digit form where that round-trips — so configs and
/// campaign spec hashes written with it stay the same — else the shortest
/// form that does.
std::string double_to_string(double v) {
  std::ostringstream os;
  os << v;
  std::string text = os.str();
  double back = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), back);
  if (ec == std::errc{} && end == text.data() + text.size() && back == v) {
    return text;
  }
  char buf[32];
  const auto out = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, out.ptr);
}

std::vector<fault::Rect> blocks_from_string(const std::string& text) {
  std::vector<fault::Rect> blocks;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ';')) {
    item = trim(item);
    if (item.empty()) continue;
    fault::Rect r;
    char c1 = 0, c2 = 0, c3 = 0;
    std::istringstream cell(item);
    if (!(cell >> r.x0 >> c1 >> r.y0 >> c2 >> r.x1 >> c3 >> r.y1) ||
        c1 != ',' || c2 != ',' || c3 != ',' || !(cell >> std::ws).eof()) {
      throw std::invalid_argument("malformed fault block: " + item);
    }
    blocks.push_back(r);
  }
  return blocks;
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::invalid_argument("config line " + std::to_string(line) + ": " + what);
}

}  // namespace

void save_config(std::ostream& os, const SimConfig& cfg) {
  os << "# ftmesh simulation configuration\n"
     << "width = " << cfg.width << "\n"
     << "height = " << cfg.height << "\n"
     << "algorithm = " << cfg.algorithm << "\n"
     << "total_vcs = " << cfg.total_vcs << "\n"
     << "misroute_limit = " << cfg.misroute_limit << "\n"
     << "xy_escape = " << (cfg.xy_escape ? 1 : 0) << "\n"
     << "selection = " << routing::to_string(cfg.selection) << "\n"
     << "buffer_depth = " << cfg.buffer_depth << "\n"
     << "injection_vcs = " << cfg.injection_vcs << "\n"
     << "traffic = " << cfg.traffic << "\n"
     << "injection_rate = " << double_to_string(cfg.injection_rate) << "\n"
     << "message_length = " << cfg.message_length << "\n"
     << "fault_count = " << cfg.fault_count << "\n"
     << "link_fault_count = " << cfg.link_fault_count << "\n"
     << "fault_blocks = " << blocks_to_string(cfg.fault_blocks) << "\n"
     << "fault_schedule = " << cfg.fault_schedule << "\n"
     << "fault_max_retries = " << cfg.fault_max_retries << "\n"
     << "fault_retry_backoff = " << cfg.fault_retry_backoff << "\n"
     << "warmup_cycles = " << cfg.warmup_cycles << "\n"
     << "total_cycles = " << cfg.total_cycles << "\n"
     << "seed = " << cfg.seed << "\n"
     << "watchdog_patience = " << cfg.watchdog_patience << "\n"
     << "scan_mode = " << cfg.scan_mode << "\n"
     << "tiles = " << cfg.tiles << "\n"
     << "step_threads = " << cfg.step_threads << "\n"
     << "route_cache = " << (cfg.route_cache ? 1 : 0) << "\n"
     << "recycle_messages = " << (cfg.recycle_messages ? 1 : 0) << "\n"
     << "shard_alloc = " << (cfg.shard_alloc ? 1 : 0) << "\n"
     << "collect_vc_usage = " << (cfg.collect_vc_usage ? 1 : 0) << "\n"
     << "collect_traffic_map = " << (cfg.collect_traffic_map ? 1 : 0) << "\n"
     << "collect_kernel_stats = " << (cfg.collect_kernel_stats ? 1 : 0) << "\n"
     << "metrics_interval = " << cfg.metrics_interval << "\n";
}

void save_config_file(const std::string& path, const SimConfig& cfg) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  save_config(os, cfg);
}

SimConfig load_config(std::istream& is) {
  SimConfig cfg;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto comment = line.find('#');
    if (comment != std::string::npos) line.erase(comment);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected key = value");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    bool known = true;
    try {
      if (key == "width") cfg.width = parse_number<int>(value);
      else if (key == "height") cfg.height = parse_number<int>(value);
      else if (key == "algorithm") cfg.algorithm = value;
      else if (key == "total_vcs") cfg.total_vcs = parse_number<int>(value);
      else if (key == "misroute_limit") cfg.misroute_limit = parse_number<int>(value);
      else if (key == "xy_escape") cfg.xy_escape = parse_number<bool>(value);
      else if (key == "selection") cfg.selection = routing::selection_from_string(value);
      else if (key == "buffer_depth") cfg.buffer_depth = parse_number<int>(value);
      else if (key == "injection_vcs") cfg.injection_vcs = parse_number<int>(value);
      else if (key == "traffic") cfg.traffic = value;
      else if (key == "injection_rate") cfg.injection_rate = parse_number<double>(value);
      else if (key == "message_length") cfg.message_length = parse_number<std::uint32_t>(value);
      else if (key == "fault_count") cfg.fault_count = parse_number<int>(value);
      else if (key == "link_fault_count") cfg.link_fault_count = parse_number<int>(value);
      else if (key == "fault_blocks") cfg.fault_blocks = blocks_from_string(value);
      else if (key == "fault_schedule") cfg.fault_schedule = value;
      else if (key == "fault_max_retries") cfg.fault_max_retries = parse_number<int>(value);
      else if (key == "fault_retry_backoff") cfg.fault_retry_backoff = parse_number<std::uint64_t>(value);
      else if (key == "warmup_cycles") cfg.warmup_cycles = parse_number<std::uint64_t>(value);
      else if (key == "total_cycles") cfg.total_cycles = parse_number<std::uint64_t>(value);
      else if (key == "seed") cfg.seed = parse_number<std::uint64_t>(value);
      else if (key == "watchdog_patience") cfg.watchdog_patience = parse_number<std::uint64_t>(value);
      // scan_mode, route_cache, recycle_messages and shard_alloc are
      // retired; their keys still load so older saved configs (and campaign
      // spec hashes) stay valid, and validate() names the removal for a
      // non-default value.
      else if (key == "scan_mode") cfg.scan_mode = value;
      else if (key == "tiles") cfg.tiles = parse_number<int>(value);
      else if (key == "step_threads") cfg.step_threads = parse_number<int>(value);
      else if (key == "route_cache") cfg.route_cache = parse_number<bool>(value);
      else if (key == "recycle_messages") cfg.recycle_messages = parse_number<bool>(value);
      else if (key == "shard_alloc") cfg.shard_alloc = parse_number<bool>(value);
      else if (key == "collect_vc_usage") cfg.collect_vc_usage = parse_number<bool>(value);
      else if (key == "collect_traffic_map") cfg.collect_traffic_map = parse_number<bool>(value);
      else if (key == "collect_kernel_stats") cfg.collect_kernel_stats = parse_number<bool>(value);
      else if (key == "metrics_interval") cfg.metrics_interval = parse_number<std::uint64_t>(value);
      else known = false;
    } catch (const std::exception& e) {
      fail(line_no, std::string("bad value for ") + key + ": " + e.what());
    }
    if (!known) fail(line_no, "unknown key: " + key);
  }
  return cfg;
}

SimConfig load_config_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  return load_config(is);
}

}  // namespace ftmesh::core
