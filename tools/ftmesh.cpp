// The ftmesh command-line driver: run simulations, sweep rates, find
// saturation points, and inspect fault patterns without writing C++.
// `ftmesh --help` (or `ftmesh <command> --help`) prints kUsage below.
//
// Flags mirror SimConfig fields; a --config file provides the base and
// explicit flags override it.  Each command accepts only the flags it
// reads (kCommands): anything else is an error before any work starts.
//
// verify and audit take --algo (or --algorithm) as "all", a comma list or
// broken-demo, and --faults as a comma list of whole non-negative counts
// ("5x" and "-2" are errors).  Each count draws the random pattern `run`
// uses for that --faults/--link-faults/--seed; verify checks a config's
// fault blocks instead, once.  audit rejects an unknown --patterns class
// and fails when no requested class applies, rather than passing having
// audited nothing.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>

#include "ftmesh/analysis/reliability_model.hpp"
#include "ftmesh/analysis/saturation.hpp"
#include "ftmesh/campaign/csv.hpp"
#include "ftmesh/campaign/merge.hpp"
#include "ftmesh/campaign/progress.hpp"
#include "ftmesh/campaign/stream.hpp"
#include "ftmesh/core/config_io.hpp"
#include "ftmesh/core/experiment.hpp"
#include "ftmesh/report/cli.hpp"
#include "ftmesh/report/csv.hpp"
#include "ftmesh/report/heatmap.hpp"
#include "ftmesh/report/json.hpp"
#include "ftmesh/report/table.hpp"
#include "ftmesh/trace/metrics_recorder.hpp"
#include "ftmesh/trace/trace_sink.hpp"
#include "ftmesh/verify/audit.hpp"
#include "ftmesh/verify/broken_demo.hpp"
#include "ftmesh/verify/verifier.hpp"

namespace {

using ftmesh::core::SimConfig;
using ftmesh::report::Cli;

/// Overrides `field` with --name when given, parsed like the matching
/// config-file key: the whole token, as the field's own type, with its
/// sign checked (so "--length -8" and "--cycles 3000x" are errors).
template <typename T>
void override_from(const Cli& cli, const std::string& name, T& field) {
  if (!cli.flag(name)) return;
  try {
    field = ftmesh::core::parse_number<T>(cli.get(name, ""));
  } catch (const std::exception& e) {
    throw std::invalid_argument("bad value for --" + name + ": " + e.what());
  }
}

/// The base SimConfig: --config, then the flags that override its fields.
/// `--faults` is the random node-fault count, except for verify and audit,
/// which read it as their own list of counts and pass false.
SimConfig config_from_cli(const Cli& cli, bool faults_is_count = true) {
  SimConfig cfg;
  if (const auto path = cli.get("config", ""); !path.empty()) {
    cfg = ftmesh::core::load_config_file(path);
  }
  cfg.algorithm = cli.get("algorithm", cfg.algorithm);
  cfg.traffic = cli.get("traffic", cfg.traffic);
  override_from(cli, "width", cfg.width);
  override_from(cli, "height", cfg.height);
  override_from(cli, "rate", cfg.injection_rate);
  override_from(cli, "length", cfg.message_length);
  override_from(cli, "vcs", cfg.total_vcs);
  if (faults_is_count) override_from(cli, "faults", cfg.fault_count);
  override_from(cli, "link-faults", cfg.link_fault_count);
  override_from(cli, "cycles", cfg.total_cycles);
  // A new run length without an explicit warm-up keeps the paper's 1:3
  // ratio; otherwise the warm-up is the config file's (or the default).
  if (cli.flag("cycles") && !cli.flag("warmup")) {
    cfg.warmup_cycles = cfg.total_cycles / 3;
  }
  override_from(cli, "warmup", cfg.warmup_cycles);
  override_from(cli, "seed", cfg.seed);
  override_from(cli, "buffer-depth", cfg.buffer_depth);
  override_from(cli, "patience", cfg.watchdog_patience);
  cfg.fault_schedule = cli.get("fault-schedule", cfg.fault_schedule);
  override_from(cli, "max-retries", cfg.fault_max_retries);
  override_from(cli, "backoff", cfg.fault_retry_backoff);
  if (cli.flag("kernel-stats")) cfg.collect_kernel_stats = true;
  override_from(cli, "metrics-interval", cfg.metrics_interval);
  for (const auto& w : cfg.warnings()) std::cerr << "warning: " << w << "\n";
  return cfg;
}

/// --trace/--trace-format: opens the file and attaches the matching sink.
/// Returns nullptr (and leaves `os` closed) when tracing is not requested.
std::unique_ptr<ftmesh::trace::TraceSink> make_trace_sink(const Cli& cli,
                                                          const SimConfig& cfg,
                                                          std::ofstream& os) {
  const auto path = cli.get("trace", "");
  if (path.empty()) return nullptr;
  os.open(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  const auto format = cli.get("trace-format", "jsonl");
  if (format == "jsonl") {
    return std::make_unique<ftmesh::trace::JsonlSink>(os);
  }
  if (format == "chrome") {
    return std::make_unique<ftmesh::trace::ChromeTraceSink>(os, cfg.width);
  }
  throw std::invalid_argument("unknown --trace-format: " + format +
                              " (expected jsonl or chrome)");
}

int cmd_run(const Cli& cli) {
  auto cfg = config_from_cli(cli);
  if (const auto path = cli.get("save-config", ""); !path.empty()) {
    ftmesh::core::save_config_file(path, cfg);
    std::cerr << "wrote " << path << "\n";
  }
  ftmesh::core::Simulator sim(cfg);
  std::ofstream trace_os;
  const auto sink = make_trace_sink(cli, cfg, trace_os);
  if (sink) sim.set_trace_sink(sink.get());
  auto r = sim.run();
  // --drain: stop generation after the schedule and keep the clock running
  // until every message delivers or aborts; with a fault schedule this makes
  // the accounting identity (generated == delivered + aborted) checkable,
  // and the exit code reflects it.
  std::uint64_t drained_cycles = 0;
  if (cli.flag("drain") && !r.deadlock) {
    drained_cycles = sim.drain();
    r = sim.snapshot();
  }
  if (sink) sink->flush();
  if (const auto path = cli.get("metrics-out", ""); !path.empty()) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write " + path);
    ftmesh::trace::write_metrics_csv(os, r.metrics);
    std::cerr << "wrote " << r.metrics.samples.size() << " metrics samples to "
              << path << "\n";
  }
  const bool leak =
      cli.flag("drain") && r.reliability.enabled && r.reliability.in_flight_end != 0;
  if (cli.flag("json")) {
    ftmesh::report::write_result_json(std::cout, cfg, r);
    return (r.deadlock || leak) ? 1 : 0;
  }
  ftmesh::report::Table table({"metric", "value"});
  const auto row = [&](const std::string& k, const std::string& v) {
    table.add_row({k, v});
  };
  row("algorithm", cfg.algorithm);
  row("faults", std::to_string(r.faulty_nodes) + " faulty + " +
                    std::to_string(r.deactivated_nodes) + " deactivated");
  row("cycles run", std::to_string(r.cycles_run));
  row("messages delivered", std::to_string(r.latency.delivered));
  row("mean latency", ftmesh::report::format_double(r.latency.mean, 1));
  row("mean network latency",
      ftmesh::report::format_double(r.latency.mean_network, 1));
  row("p99 latency", ftmesh::report::format_double(r.latency.p99, 1));
  row("accepted flits/node/cycle",
      ftmesh::report::format_double(r.throughput.accepted_flits_per_node_cycle, 4));
  row("accepted/offered",
      ftmesh::report::format_double(r.throughput.accepted_fraction, 3));
  row("mean hops", ftmesh::report::format_double(r.latency.mean_hops, 2));
  row("deadlock", r.deadlock ? "YES" : "no");
  if (!r.metrics.samples.empty()) {
    row("metrics samples",
        std::to_string(r.metrics.samples.size()) + " every " +
            std::to_string(r.metrics.interval) + " cycles");
  }
  if (r.kernel.enabled) {
    const auto& k = r.kernel;
    row("route-cache hit rate",
        ftmesh::report::format_double(100.0 * k.cache_hit_rate, 1) + "% (" +
            std::to_string(k.cache_hits) + "/" +
            std::to_string(k.cache_lookups) + ", " +
            std::to_string(k.cache_invalidations) + " invalidations)");
    row("active nodes route/switch",
        ftmesh::report::format_double(k.mean_route_nodes, 1) + " / " +
            ftmesh::report::format_double(k.mean_switch_nodes, 1));
    row("active inject/link-regs",
        ftmesh::report::format_double(k.mean_inject_nodes, 1) + " / " +
            ftmesh::report::format_double(k.mean_link_regs, 1));
  }
  if (r.reliability.enabled) {
    const auto& rel = r.reliability;
    row("fault events", std::to_string(rel.fault_events_applied) + " applied, " +
                            std::to_string(rel.fault_events_rejected) + " rejected");
    row("node failures/repairs", std::to_string(rel.node_failures) + " / " +
                                     std::to_string(rel.node_repairs));
    row("f-rings reused/rebuilt", std::to_string(rel.rings_reused) + " / " +
                                      std::to_string(rel.rings_rebuilt));
    row("messages", std::to_string(rel.generated) + " generated = " +
                        std::to_string(rel.delivered) + " delivered + " +
                        std::to_string(rel.aborted) + " aborted + " +
                        std::to_string(rel.in_flight_end) + " in flight");
    row("flushed / retransmitted", std::to_string(rel.messages_flushed) + " / " +
                                       std::to_string(rel.retransmissions));
    row("recovered messages", std::to_string(rel.recovered_messages));
    row("recovery latency mean/p95",
        ftmesh::report::format_double(rel.recovery_latency_mean, 1) + " / " +
            ftmesh::report::format_double(rel.recovery_latency_p95, 1));
    row("post-fault throughput",
        ftmesh::report::format_double(rel.post_fault_throughput, 4));
    if (drained_cycles > 0) row("drain cycles", std::to_string(drained_cycles));
  }
  table.print(std::cout);
  return (r.deadlock || leak) ? 1 : 0;
}

int cmd_sweep(const Cli& cli) {
  auto base = config_from_cli(cli);
  const double from = cli.get_double("from", 0.0005);
  const double to = cli.get_double("to", 0.005);
  const int steps = static_cast<int>(cli.get_int("steps", 8));
  std::vector<SimConfig> configs;
  std::vector<double> rates;
  for (int i = 0; i < steps; ++i) {
    const double rate =
        from + (to - from) * static_cast<double>(i) / std::max(1, steps - 1);
    rates.push_back(rate);
    auto cfg = base;
    cfg.injection_rate = rate;
    configs.push_back(cfg);
  }
  const auto results = ftmesh::core::run_batch(configs);
  ftmesh::report::Table table(
      {"rate", "accepted/offered", "mean latency", "network latency"});
  for (int i = 0; i < steps; ++i) {
    const auto row = table.add_row();
    table.set(row, 0, rates[static_cast<std::size_t>(i)], 5);
    table.set(row, 1, results[static_cast<std::size_t>(i)].throughput.accepted_fraction, 3);
    table.set(row, 2, results[static_cast<std::size_t>(i)].latency.mean, 1);
    table.set(row, 3, results[static_cast<std::size_t>(i)].latency.mean_network, 1);
  }
  table.print(std::cout);
  return 0;
}

int cmd_saturation(const Cli& cli) {
  auto base = config_from_cli(cli);
  ftmesh::analysis::SaturationOptions opts;
  opts.lo = cli.get_double("from", 0.0002);
  opts.hi = cli.get_double("to", 0.01);
  opts.threshold = cli.get_double("threshold", 0.95);
  opts.iterations = static_cast<int>(cli.get_int("iterations", 7));
  const auto r = ftmesh::analysis::find_saturation_rate(base, opts);
  std::cout << base.algorithm << ": saturation at ~" << r.rate
            << " msg/node/cycle (accepted/offered " << r.accepted << ", "
            << r.simulations << " probe simulations)\n";
  return 0;
}

int cmd_faults(const Cli& cli) {
  const auto cfg = config_from_cli(cli);
  const ftmesh::topology::Mesh mesh(cfg.width, cfg.height);
  const auto map = ftmesh::core::initial_fault_map(cfg, mesh);
  std::cout << map.faulty_count() << " faulty + " << map.deactivated_count()
            << " deactivated nodes, " << map.regions().size() << " region(s)\n";
  std::vector<double> zeros(static_cast<std::size_t>(mesh.node_count()), 0.0);
  ftmesh::report::HeatmapOptions opts;
  opts.show_scale = false;
  ftmesh::report::print_heatmap(std::cout, map, zeros, opts);
  return 0;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(text);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Streaming sink behind `ftmesh campaign`: writes the campaign CSV row by
// row as cells retire (memory stays flat however large the matrix), and
// optionally the per-pattern metrics time-series CSV alongside.
class CampaignCliSink : public ftmesh::campaign::CellSink {
 public:
  CampaignCliSink(std::ostream& csv_os, std::ostream* metrics_os)
      : csv_(csv_os), metrics_os_(metrics_os) {}

  // Headers are written on the first cell (or by finish() for an empty
  // shard) so a campaign that is refused up front leaves no partial output.
  void finish() {
    ensure_headers();
  }

  void on_cell(const ftmesh::campaign::CellRecord& record) override {
    ensure_headers();
    csv_.row(record.row);
    ++rows_;
    if (!metrics_) return;
    for (std::size_t p = 0; p < record.runs.size(); ++p) {
      for (const auto& s : record.runs[p].metrics.samples) {
        std::vector<std::string> row = {
            record.plan.algorithm,
            ftmesh::report::format_double(record.plan.rate, 6),
            std::to_string(record.plan.fault_count), std::to_string(p)};
        const auto cells = ftmesh::trace::metrics_csv_cells(s);
        row.insert(row.end(), cells.begin(), cells.end());
        metrics_->row(row);
      }
    }
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

 private:
  void ensure_headers() {
    if (headers_written_) return;
    headers_written_ = true;
    csv_.row(ftmesh::campaign::csv_columns());
    if (metrics_os_ != nullptr) {
      metrics_ = std::make_unique<ftmesh::report::CsvWriter>(*metrics_os_);
      std::vector<std::string> header = {"algorithm", "rate", "fault_count",
                                         "pattern"};
      const auto& columns = ftmesh::trace::metrics_csv_columns();
      header.insert(header.end(), columns.begin(), columns.end());
      metrics_->row(header);
    }
  }

  bool headers_written_ = false;
  ftmesh::report::CsvWriter csv_;
  std::ostream* metrics_os_;
  std::unique_ptr<ftmesh::report::CsvWriter> metrics_;
  std::size_t rows_ = 0;
};

int cmd_campaign(const Cli& cli) {
  namespace cmp = ftmesh::campaign;
  cmp::CampaignSpec spec;
  spec.base = config_from_cli(cli);
  spec.algorithms = split_list(cli.get("algorithms", ""));
  spec.rates = cli.get_double_list("rates");
  for (const auto f : cli.get_int_list("fault-counts")) {
    spec.fault_counts.push_back(static_cast<int>(f));
  }
  spec.patterns = static_cast<int>(cli.get_int("patterns", 1));
  spec.threads = static_cast<int>(cli.get_int("threads", 0));

  cmp::StreamOptions options;
  options.threads = spec.threads;
  if (const auto shard = cli.get("shard", ""); !shard.empty()) {
    options.shard = cmp::parse_shard(shard);
  }
  const auto resume_dir = cli.get("resume", "");
  const auto dir = cli.get("dir", "");
  if (!resume_dir.empty()) {
    options.checkpoint_dir = resume_dir;
    options.resume = true;
  } else if (cli.flag("resume")) {
    if (dir.empty()) {
      throw std::invalid_argument("--resume needs a checkpoint directory");
    }
    options.checkpoint_dir = dir;
    options.resume = true;
  } else {
    options.checkpoint_dir = dir;
  }

  // --progress: heartbeat on TTY stderr; --progress=force prints even when
  // stderr is redirected (throttled for logs).
  cmp::ProgressMode mode = cmp::ProgressMode::Off;
  if (cli.flag("progress")) {
    mode = cli.get("progress", "") == "force" ? cmp::ProgressMode::Force
                                              : cmp::ProgressMode::Auto;
  }
  cmp::ProgressMeter meter(mode);
  if (meter.enabled()) {
    options.progress = [&meter](const cmp::Progress& p) { meter.update(p); };
  }

  const auto metrics_path = cli.get("metrics-out", "");
  if (!metrics_path.empty() && options.resume) {
    throw std::invalid_argument(
        "--metrics-out cannot be combined with --resume: per-pattern time "
        "series of already-completed cells are not checkpointed");
  }

  std::ofstream csv_file;
  std::ostream* csv_os = &std::cout;
  const auto out = cli.get("out", "");
  if (!out.empty()) {
    csv_file.open(out);
    if (!csv_file) throw std::runtime_error("cannot write " + out);
    csv_os = &csv_file;
  }
  std::ofstream metrics_file;
  std::ostream* metrics_os = nullptr;
  if (!metrics_path.empty()) {
    metrics_file.open(metrics_path);
    if (!metrics_file) throw std::runtime_error("cannot write " + metrics_path);
    metrics_os = &metrics_file;
  }

  CampaignCliSink sink(*csv_os, metrics_os);
  const auto stats = cmp::run_streamed(spec, options, &sink);
  sink.finish();
  meter.finish(cmp::Progress{stats.cells_owned, stats.cells_owned,
                             stats.runs_executed, stats.runs_executed});

  if (!out.empty()) {
    std::cerr << "wrote " << sink.rows() << " cells to " << out;
    if (options.shard.count > 1) {
      std::cerr << " (shard " << options.shard.index << "/"
                << options.shard.count << " of " << stats.cells_total
                << " total; combine with ftmesh campaign-merge)";
    }
    std::cerr << "\n";
  }
  if (!metrics_path.empty()) {
    std::cerr << "wrote per-pattern metrics to " << metrics_path << "\n";
  }
  if (!options.checkpoint_dir.empty()) {
    std::cerr << "checkpoint: " << options.checkpoint_dir << " ("
              << stats.cells_restored << " restored, " << stats.cells_completed
              << " simulated)\n";
  }
  return 0;
}

int cmd_campaign_merge(const Cli& cli) {
  const std::vector<std::string>& dirs = cli.positional();
  if (dirs.empty()) {
    std::cerr << "usage: ftmesh campaign-merge [--out f.csv] DIR [DIR...]\n";
    return 2;
  }
  const auto out = cli.get("out", "");
  ftmesh::campaign::MergeReport report;
  if (!out.empty()) {
    std::ofstream os(out);
    if (!os) throw std::runtime_error("cannot write " + out);
    report = ftmesh::campaign::merge_campaign(dirs, os);
    std::cerr << "merged " << report.shards << " shard(s): " << report.cells
              << " cells to " << out << "\n";
  } else {
    report = ftmesh::campaign::merge_campaign(dirs, std::cout);
  }
  return 0;
}

/// verify/audit --faults: a comma list of random node-fault counts, each a
/// whole non-negative integer.
std::vector<int> fault_count_list(const Cli& cli, const std::string& fallback) {
  std::vector<int> counts;
  for (const auto n : cli.get_int_list("faults", fallback)) {
    if (n < 0 || n > std::numeric_limits<int>::max()) {
      throw std::invalid_argument(
          "bad value for --faults: expected a non-negative int, got '" +
          std::to_string(n) + "'");
    }
    counts.push_back(static_cast<int>(n));
  }
  return counts;
}

/// The fault map a run of `cfg` with `fault_count` random node faults (and
/// cfg's random link faults) starts from.
ftmesh::fault::FaultMap random_fault_map(SimConfig cfg, const ftmesh::topology::Mesh& mesh,
                                         int fault_count) {
  cfg.fault_blocks.clear();
  cfg.fault_count = fault_count;
  return ftmesh::core::initial_fault_map(cfg, mesh);
}

/// verify/audit --algo (or --algorithm): "all", a comma list of registry
/// names, or broken-demo.  Calls check(algo, rings) for each, built over
/// `map` with cfg's routing options.
template <typename Check>
void for_each_checked_algorithm(const Cli& cli, const SimConfig& cfg,
                                const ftmesh::topology::Mesh& mesh,
                                const ftmesh::fault::FaultMap& map, const Check& check) {
  const auto arg = cli.get("algo", cli.get("algorithm", "all"));
  const auto names = arg == "all" ? ftmesh::routing::algorithm_names() : split_list(arg);
  if (names.empty()) throw std::invalid_argument("--algo names no algorithm");
  const ftmesh::fault::FRingSet rings(map);
  for (const auto& name : names) {
    std::unique_ptr<ftmesh::routing::RoutingAlgorithm> algo;
    if (name == "broken-demo") {
      algo = std::make_unique<ftmesh::verify::BrokenDemoRouting>(mesh, map);
    } else {
      ftmesh::routing::RoutingOptions ropts;
      ropts.total_vcs = cfg.total_vcs;
      ropts.misroute_limit = cfg.misroute_limit;
      ropts.xy_escape = cfg.xy_escape;
      algo = ftmesh::routing::make_algorithm(name, mesh, map, rings, ropts);
    }
    check(*algo, rings);
  }
}

// Static deadlock-freedom verification: enumerate the channel-dependency
// graph of each requested algorithm against each fault pattern and check
// acyclicity + progress.  Exit 0 only when every combination verifies.
// The config's fault blocks, when it has any, are the one pattern checked;
// otherwise each --faults count draws the random pattern `run` would use.
int cmd_verify(const Cli& cli) {
  const auto cfg = config_from_cli(cli, false);
  const ftmesh::topology::Mesh mesh(cfg.width, cfg.height);
  auto fault_counts = fault_count_list(cli, "0");
  if (fault_counts.empty() || !cfg.fault_blocks.empty()) fault_counts = {0};

  ftmesh::verify::VerifyOptions vopts;
  vopts.threads = static_cast<int>(cli.get_int("threads", 0));

  bool all_ok = true;
  for (const int fault_count : fault_counts) {
    const auto map = cfg.fault_blocks.empty()
                         ? random_fault_map(cfg, mesh, fault_count)
                         : ftmesh::core::initial_fault_map(cfg, mesh);
    for_each_checked_algorithm(
        cli, cfg, mesh, map,
        [&](const ftmesh::routing::RoutingAlgorithm& algo, const ftmesh::fault::FRingSet&) {
          const auto report = ftmesh::verify::verify_algorithm(algo, mesh, map, vopts);
          ftmesh::verify::print_report(std::cout, report, mesh);
          all_ok = all_ok && report.ok();
        });
  }
  std::cout << (all_ok ? "verification PASSED" : "verification FAILED")
            << "\n";
  return all_ok ? 0 : 1;
}

// Static routing-function audit: exhaustively enumerate reachable routing
// states per destination and check coverage, VC-role discipline, f-ring
// conformance and progress bounds against each algorithm's published
// AuditProfile.  Runs over a matrix of fault-pattern classes so both the
// fault-free function and its fortified behaviour are covered.  An unknown
// class name is an error, and so is a matrix with nothing in it to audit.
int cmd_audit(const Cli& cli) {
  const auto cfg = config_from_cli(cli, false);
  const ftmesh::topology::Mesh mesh(cfg.width, cfg.height);

  // ---- fault-pattern classes --------------------------------------------
  // clean     fault-free mesh
  // center    one interior block region (f-rings closed)
  // boundary  one block hugging the west edge (f-rings open / chain case)
  // link      one isolated interior dead link (degenerate inverted-box
  //           region: partial-router degradation, nothing deactivated)
  // link-edge a dead link on the mesh boundary (open f-chain case)
  // random    FaultMap::random with the simulator's --faults/--link-faults/
  //           --seed derivation, one pattern per entry of --faults
  using ftmesh::fault::FaultMap;
  using ftmesh::fault::Rect;
  using ftmesh::topology::Coord;
  using ftmesh::topology::Direction;
  static const std::vector<std::string> kClasses{
      "clean", "center", "boundary", "link", "link-edge", "random"};
  std::vector<std::pair<std::string, FaultMap>> patterns;
  const auto wanted = split_list(
      cli.get("patterns", "clean,center,boundary,link,link-edge,random"));
  for (const auto& w : wanted) {
    if (std::find(kClasses.begin(), kClasses.end(), w) == kClasses.end()) {
      throw std::invalid_argument("unknown --patterns class '" + w +
                                  "' (expected clean, center, boundary, link, "
                                  "link-edge or random)");
    }
  }
  const auto has = [&wanted](const char* p) {
    return std::find(wanted.begin(), wanted.end(), p) != wanted.end();
  };
  if (has("clean")) patterns.emplace_back("clean", FaultMap(mesh));
  if (has("center") && cfg.width >= 5 && cfg.height >= 5) {
    const int cx = cfg.width / 2;
    const int cy = cfg.height / 2;
    patterns.emplace_back(
        "center", FaultMap::from_blocks(mesh, {Rect{cx - 1, cy - 1, cx, cy}}));
  }
  if (has("boundary") && cfg.width >= 4 && cfg.height >= 5) {
    const int cy = cfg.height / 2;
    patterns.emplace_back(
        "boundary", FaultMap::from_blocks(mesh, {Rect{0, cy - 1, 0, cy}}));
  }
  if (has("link") && cfg.width >= 5 && cfg.height >= 5) {
    const Coord a{cfg.width / 2 - 1, cfg.height / 2};
    patterns.emplace_back(
        "link", FaultMap::from_state(mesh, {}, {{a, Direction::XPlus}}));
  }
  if (has("link-edge") && cfg.width >= 4 && cfg.height >= 4) {
    const Coord a{cfg.width / 2 - 1, 0};
    patterns.emplace_back(
        "link-edge", FaultMap::from_state(mesh, {}, {{a, Direction::XPlus}}));
  }
  if (has("random")) {
    const int link_faults = cfg.link_fault_count;
    for (const int fault_count : fault_count_list(cli, "3")) {
      if (fault_count <= 0 && link_faults <= 0) continue;
      std::string label = "random-" + std::to_string(fault_count);
      // append, not `"+" + ...`: GCC 12's -Wrestrict misfires on that here.
      if (link_faults > 0) {
        label.append("+").append(std::to_string(link_faults)).append("L");
      }
      patterns.emplace_back(label, random_fault_map(cfg, mesh, fault_count));
    }
  }
  if (patterns.empty()) {
    throw std::invalid_argument("nothing to audit: no requested --patterns class "
                                "yields a fault pattern on a " +
                                std::to_string(cfg.width) + "x" +
                                std::to_string(cfg.height) + " mesh");
  }

  ftmesh::verify::AuditOptions aopts;
  aopts.threads = static_cast<int>(cli.get_int("threads", 0));
  aopts.max_violations = static_cast<std::size_t>(
      std::max<std::int64_t>(0, cli.get_int("max-violations", 16)));

  const bool json = cli.flag("json");
  ftmesh::report::JsonWriter jw(std::cout);
  if (json) jw.begin_array();

  bool all_ok = true;
  for (const auto& [label, map] : patterns) {
    for_each_checked_algorithm(
        cli, cfg, mesh, map,
        [&](const ftmesh::routing::RoutingAlgorithm& algo,
            const ftmesh::fault::FRingSet& rings) {
          const auto report =
              ftmesh::verify::audit_algorithm(algo, mesh, map, rings, aopts);
          all_ok = all_ok && report.ok();
          if (json) {
            jw.begin_object();
            jw.key("algorithm").value(report.algorithm);
            jw.key("pattern").value(label);
            jw.key("width").value(report.width);
            jw.key("height").value(report.height);
            jw.key("total_vcs").value(report.total_vcs);
            jw.key("faulty").value(report.faulty);
            jw.key("deactivated").value(report.deactivated);
            jw.key("states_explored").value(report.states_explored);
            jw.key("candidates_checked").value(report.candidates_checked);
            jw.key("violations").value(report.violation_count);
            jw.key("ok").value(report.ok());
            jw.key("witnesses").begin_array();
            for (const auto& v : report.violations) {
              jw.begin_object();
              jw.key("check").value(ftmesh::verify::audit_check_name(v.check));
              jw.key("at").begin_array().value(v.at.x).value(v.at.y).end_array();
              jw.key("dst").begin_array().value(v.dst.x).value(v.dst.y).end_array();
              jw.key("key").value(static_cast<std::uint64_t>(v.key));
              jw.key("detail").value(v.detail);
              jw.end_object();
            }
            jw.end_array();
            jw.end_object();
          } else {
            std::cout << "pattern " << label << ": ";
            ftmesh::verify::print_audit_report(std::cout, report);
          }
        });
  }
  if (json) {
    jw.end_array();
    std::cout << "\n";
  } else {
    std::cout << (all_ok ? "audit PASSED" : "audit FAILED") << "\n";
  }
  return all_ok ? 0 : 1;
}

// Probabilistic network-(dis)connection estimate under i.i.d. node and
// link faults, cross-validated by Monte-Carlo sampling (--trials 0 skips
// the sampling pass).
int cmd_reliability(const Cli& cli) {
  const int width = static_cast<int>(cli.get_int("width", 8));
  const int height = static_cast<int>(cli.get_int("height", 8));
  const double p = cli.get_double("node-prob", 0.01);
  const double q = cli.get_double("link-prob", 0.01);
  const int trials = static_cast<int>(cli.get_int("trials", 10000));
  const auto seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1));

  const ftmesh::topology::Mesh mesh(width, height);
  const ftmesh::analysis::ReliabilityModel model(mesh, p, q);
  const double estimate = model.disconnection_estimate();
  ftmesh::analysis::MonteCarloReliability mc;
  if (trials > 0) {
    mc = model.monte_carlo(trials, ftmesh::sim::Rng(seed).derive(0x5E));
  }

  if (cli.flag("json")) {
    ftmesh::report::JsonWriter jw(std::cout);
    jw.begin_object();
    jw.key("width").value(width);
    jw.key("height").value(height);
    jw.key("node_fault_prob").value(p);
    jw.key("link_fault_prob").value(q);
    jw.key("disconnection_estimate").value(estimate);
    if (trials > 0) {
      jw.key("mc_trials").value(mc.trials);
      jw.key("mc_disconnected").value(mc.disconnected);
      jw.key("mc_estimate").value(mc.estimate);
      jw.key("mc_std_error").value(mc.std_error);
    }
    jw.end_object();
    std::cout << "\n";
    return 0;
  }
  std::cout << width << "x" << height << " mesh, p(node)=" << p
            << ", p(link)=" << q << "\n"
            << "analytic P[disconnected] = " << estimate << "\n";
  if (trials > 0) {
    std::cout << "monte-carlo (" << mc.trials
              << " trials): " << mc.estimate << " +/- " << mc.std_error
              << " (" << mc.disconnected << " disconnected)\n";
  }
  return 0;
}

int cmd_algorithms(const Cli&) {
  for (const auto& name : ftmesh::routing::algorithm_names()) {
    std::cout << name << "\n";
  }
  return 0;
}

constexpr const char* kUsage = R"(usage: ftmesh <command> [flags]

  ftmesh run        [--config f] [--algorithm A] [--rate R] [--faults N]
                    [--link-faults N] [--cycles N] [--seed S] [--json]
                    [--save-config f]
                    [--fault-schedule SPEC] [--max-retries N]
                    [--backoff N] [--patience N] [--drain]
                    [--trace f] [--trace-format jsonl|chrome]
                    [--metrics-interval N] [--metrics-out f.csv]
  ftmesh sweep      [--algorithm A] [--from R0] [--to R1] [--steps N] ...
  ftmesh saturation [--algorithm A] [--threshold T] ...
  ftmesh faults     [--faults N] [--seed S]
  ftmesh campaign   [--algorithms A,B,..] [--rates r1,r2,..]
                    [--fault-counts 0,5,10] [--patterns N] [--out f.csv]
                    [--threads N] [--metrics-interval N] [--metrics-out f.csv]
                    [--dir DIR] [--resume DIR] [--shard i/N]
                    [--progress[=force]]
  ftmesh campaign-merge [--out f.csv] DIR [DIR...]
  ftmesh verify     [--algo A|all|broken-demo] [--faults 0,5,10]
                    [--link-faults N] [--seed S] [--width W] [--height H]
                    [--vcs V] [--threads N] [--config f]
  ftmesh audit      [--algo A|all|broken-demo] [--patterns clean,center,
                    boundary,link,link-edge,random] [--faults N,..]
                    [--link-faults N] [--seed S] [--width W] [--height H]
                    [--vcs V] [--threads N] [--max-violations N] [--json]
  ftmesh reliability [--width W] [--height H] [--node-prob P]
                    [--link-prob Q] [--trials N] [--seed S] [--json]
  ftmesh algorithms

Every command that simulates or checks a mesh (all but campaign-merge,
reliability and algorithms) also takes the SimConfig flags: --config
--algorithm --traffic --width --height --rate --length --vcs --faults
--link-faults --cycles --warmup --seed --buffer-depth --patience
--fault-schedule --max-retries --backoff --kernel-stats
--metrics-interval.
)";

/// The flags config_from_cli reads.
const std::vector<std::string> kConfigFlags = {
    "config", "algorithm", "traffic", "width", "height", "rate", "length",
    "vcs", "faults", "link-faults", "cycles", "warmup", "seed", "buffer-depth",
    "patience", "fault-schedule", "max-retries", "backoff", "kernel-stats",
    "metrics-interval"};

struct Command {
  const char* name;
  int (*run)(const Cli&);
  bool config_flags;               ///< reads kConfigFlags too
  std::vector<std::string> flags;  ///< its own flags
};

const std::vector<Command> kCommands = {
    {"run", cmd_run, true,
     {"save-config", "trace", "trace-format", "drain", "metrics-out", "json"}},
    {"sweep", cmd_sweep, true, {"from", "to", "steps"}},
    {"saturation", cmd_saturation, true,
     {"from", "to", "threshold", "iterations"}},
    {"faults", cmd_faults, true, {}},
    {"campaign", cmd_campaign, true,
     {"algorithms", "rates", "fault-counts", "patterns", "threads", "shard",
      "resume", "dir", "progress", "metrics-out", "out"}},
    {"campaign-merge", cmd_campaign_merge, false, {"out"}},
    {"verify", cmd_verify, true, {"algo", "threads"}},
    {"audit", cmd_audit, true,
     {"algo", "patterns", "threads", "max-violations", "json"}},
    {"reliability", cmd_reliability, false,
     {"width", "height", "node-prob", "link-prob", "trials", "seed", "json"}},
    {"algorithms", cmd_algorithms, false, {}},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc < 2 ? "" : argv[1];
  const Cli cli(argc - 1, argv + 1);
  if (cmd == "--help" || cli.flag("help")) {
    std::cout << kUsage;
    return 0;
  }
  const auto it =
      std::find_if(kCommands.begin(), kCommands.end(),
                   [&cmd](const Command& c) { return cmd == c.name; });
  if (it == kCommands.end()) {
    std::cerr << kUsage;
    return 2;
  }
  try {
    auto known = it->flags;
    if (it->config_flags) {
      known.insert(known.end(), kConfigFlags.begin(), kConfigFlags.end());
    }
    cli.reject_unknown(known);
    return it->run(cli);
  } catch (const std::exception& e) {
    std::cerr << "ftmesh: " << e.what() << "\n";
    return 1;
  }
}
