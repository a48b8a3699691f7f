#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "ftmesh/campaign/csv.hpp"
#include "ftmesh/campaign/stream.hpp"
#include "ftmesh/core/config_io.hpp"
#include "ftmesh/core/experiment.hpp"
#include "ftmesh/core/simulator.hpp"
#include "ftmesh/routing/registry.hpp"
#include "ftmesh/stats/latency_stats.hpp"
#include "pipeline.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace ftmesh;

void Outcome::fail(const std::string& why, std::uint64_t count) {
  failed += count;
  if (failures.size() < 10) failures.push_back(why);
}

namespace {

/// Extra set-up timings taken before every repetition, so that the
/// reported median spans the whole run like the other metrics do.
constexpr int kSetupSamplesPerRep = 8;

// ---- workload definitions -------------------------------------------------

struct SingleRun {
  const char* name;
  const char* config;  ///< config_io text; the seed is appended
  bool drain;          ///< drain to quiescence after the schedule
};

// examples/configs/paper_headline.cfg, serial kernel.
constexpr SingleRun kPaperHeadline{"paper-headline", R"(width = 10
height = 10
algorithm = Duato-Nbc
total_vcs = 24
traffic = uniform
injection_rate = 0.002
message_length = 100
fault_count = 5
warmup_cycles = 10000
total_cycles = 30000
tiles = 1
collect_kernel_stats = 1
)",
                                   false};

// Transient node + link faults on a large tiled mesh with short worms.  The
// tiles are stepped on one thread: with two, each phase barrier waits on a
// cross-CPU wake-up, and on a shared host that swung a run from 3 s to 10 s.
constexpr SingleRun kTiledTransient{"tiled-transient", R"(width = 32
height = 32
algorithm = Duato
total_vcs = 8
traffic = uniform
injection_rate = 0.01
message_length = 4
fault_schedule = random:count=8,rate=0.001,start=2000,repair_after=1500; random-link:count=8,rate=0.001,start=2000,repair_after=1500
warmup_cycles = 2000
total_cycles = 10000
tiles = 4
step_threads = 1
collect_kernel_stats = 1
)",
                                    true};

// Base configuration of the campaign matrix; the dimensions are set in
// make_spec().
constexpr const char* kCampaignBase = R"(width = 10
height = 10
message_length = 20
warmup_cycles = 250
total_cycles = 1000
collect_kernel_stats = 1
)";
constexpr int kCampaignThreads = 2;

core::SimConfig parse_config(const char* text, std::uint64_t seed) {
  std::istringstream is(std::string(text) + "seed = " + std::to_string(seed) + "\n");
  return core::load_config(is);
}

campaign::CampaignSpec make_spec(std::uint64_t seed) {
  campaign::CampaignSpec spec;
  spec.base = parse_config(kCampaignBase, seed);
  spec.algorithms = routing::algorithm_names();
  spec.rates = {0.002, 0.008, 0.02};
  spec.fault_counts = {0, 5, 10};
  spec.patterns = 3;
  spec.threads = kCampaignThreads;
  return spec;
}

// ---- helpers --------------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return stats::percentile_sorted(v, 0.5);
}

double percentile_ns_as(std::vector<std::int64_t> ns, double p, double scale) {
  std::vector<double> v(ns.size());
  for (std::size_t i = 0; i < ns.size(); ++i) v[i] = static_cast<double>(ns[i]) * scale;
  std::sort(v.begin(), v.end());
  return stats::percentile_sorted(v, p);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("perfbench: VmHWM missing from /proc/self/status");
}

/// Repeats `rep` until `seconds` have passed (at least once).
template <class Fn>
void repeat_for(double seconds_budget, Fn&& rep) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds_budget * 1e9);
  do {
    rep();
  } while (now_ns() < deadline);
}

// ---- per-layer counters read from the library after a traced run ---------

struct Counters {
  std::uint64_t flits_delivered = 0;
  std::uint64_t kernel_samples = 0;
  std::uint64_t route_nodes = 0;
  std::uint64_t switch_nodes = 0;
  std::uint64_t link_regs = 0;
  std::uint64_t slots_peak = 0;
  std::uint64_t decisions = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t offered = 0;
  std::uint64_t free = 0;
  std::uint64_t created = 0;
  std::uint64_t events_applied = 0;
  std::uint64_t events_rejected = 0;
  std::uint64_t flushed = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t aborts = 0;

  void add(const Pipeline& p) {
    const router::Network& n = p.network();
    flits_delivered += n.measured_flits_delivered();
    kernel_samples += n.kernel_samples();
    route_nodes += n.kernel_route_nodes_sum();
    switch_nodes += n.kernel_switch_nodes_sum();
    link_regs += n.kernel_link_regs_sum();
    slots_peak = std::max<std::uint64_t>(slots_peak, n.message_slots());
    decisions += n.measured_route_decisions();
    cache_lookups += n.route_cache_lookups();
    cache_hits += n.route_cache_hits();
    offered += n.measured_candidates_offered();
    free += n.measured_candidates_free();
    created += p.generator().generated();
    if (const inject::FaultInjector* inj = p.injector()) {
      const inject::InjectLog& log = inj->log();
      events_applied += static_cast<std::uint64_t>(log.events_applied);
      events_rejected += static_cast<std::uint64_t>(log.events_rejected);
      flushed += log.messages_flushed;
      retransmissions += log.retransmissions;
      aborts += log.aborts;
    }
  }
};

// ---- the campaign engine observed through its public hooks ----------------

/// Cell sink plus progress hook for campaign::run_streamed.  Checks every
/// row and, when timing, records each sink call as a span and each run's
/// interval: on the worker that retired it, from that worker's previous
/// hook return (or the campaign start) to the retirement hook.
class CampaignObserver : public campaign::CellSink {
 public:
  explicit CampaignObserver(bool timing = false, bool keep_runs = false)
      : timing_(timing), keep_runs_(keep_runs) {
    const auto& cols = campaign::csv_columns();
    deadlock_col_ = static_cast<std::size_t>(
        std::find(cols.begin(), cols.end(), "deadlock") - cols.begin());
  }

  void start() { start_ns_ = now_ns(); }

  void on_cell(const campaign::CellRecord& rec) override {
    const std::int64_t t0 = timing_ ? now_ns() : 0;
    std::string row;
    for (const std::string& cell : rec.row) row += cell + ',';
    rows.push_back(std::move(row));
    if (rec.row.size() != campaign::csv_columns().size() ||
        rec.row[deadlock_col_] != "0") {
      ++bad_cells;
    }
    for (const core::SimResult& r : rec.runs) {
      cycles += r.cycles_run;
      if (keep_runs_) run_prints.push_back(fingerprint(r));
    }
    if (!timing_) return;
    const std::int64_t t1 = now_ns();
    std::lock_guard lock(mutex_);
    sink_spans.emplace_back(t0, t1);
    last_end_[std::this_thread::get_id()] = t1;
  }

  void on_progress(const campaign::Progress& p) {
    if (!timing_) return;
    const std::int64_t t = now_ns();
    std::lock_guard lock(mutex_);
    const auto id = std::this_thread::get_id();
    if (p.runs_done > runs_seen_) {
      const auto it = last_end_.find(id);
      run_ns.push_back(t - (it == last_end_.end() ? start_ns_ : it->second));
      runs_seen_ = p.runs_done;
    }
    last_end_[id] = now_ns();
  }

  std::vector<std::string> rows;        ///< one joined CSV row per cell
  std::vector<std::string> run_prints;  ///< per run, matrix order (keep_runs)
  std::uint64_t cycles = 0;             ///< simulated cycles over all runs
  std::size_t bad_cells = 0;            ///< malformed row or deadlock != 0
  std::vector<std::pair<std::int64_t, std::int64_t>> sink_spans;
  std::vector<std::int64_t> run_ns;

 private:
  bool timing_;
  bool keep_runs_;
  std::size_t deadlock_col_ = 0;
  std::int64_t start_ns_ = 0;
  std::mutex mutex_;
  std::unordered_map<std::thread::id, std::int64_t> last_end_;
  std::size_t runs_seen_ = 0;
};

// ---- per-layer report -----------------------------------------------------

struct CampaignFigures {
  std::vector<std::int64_t> run_ns;
  double busy_share = 0.0;
  std::uint64_t runs_executed = 0;
  std::uint64_t peak_retained = 0;
};

/// Adds one sample of every per-layer metric.  `traced_ns` is the wall
/// time measured around the traced segments from outside the tracer;
/// `overhead` is traced / untraced wall time of the same work.
void add_layer_metrics(Outcome& out, const Tracer& tr, const Counters& c,
                       const CampaignFigures& cf, std::int64_t traced_ns,
                       double overhead) {
  if (const std::string bad = tr.check(); !bad.empty()) out.fail("span accounting: " + bad);
  const auto self = tr.self_ns();
  const auto s = [&](Layer l) { return seconds(self[static_cast<std::size_t>(l)]); };
  std::int64_t sum = 0;
  for (const std::int64_t v : self) sum += v;
  // Self times plus the unattributed remainder must add up to the wall
  // time read around the traced segments, up to the cost of the reads.
  if (std::abs(static_cast<double>(sum - traced_ns)) >
      1e-3 * static_cast<double>(traced_ns) + 1e5) {
    out.fail("span accounting: self times add up to " + std::to_string(sum) +
             " ns, traced wall is " + std::to_string(traced_ns) + " ns");
  }

  const auto steps = tr.durations(Layer::RouterStep);
  out.add("router.step_s", s(Layer::RouterStep));
  out.add("router.step_us_p50", steps.empty() ? 0.0 : percentile_ns_as(steps, 0.50, 1e-3));
  out.add("router.step_us_p99", steps.empty() ? 0.0 : percentile_ns_as(steps, 0.99, 1e-3));
  out.add("router.flits_delivered", static_cast<double>(c.flits_delivered));
  const auto per_sample = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), static_cast<double>(c.kernel_samples));
  };
  out.add("router.active_route_nodes", per_sample(c.route_nodes));
  out.add("router.active_switch_nodes", per_sample(c.switch_nodes));
  out.add("router.active_link_regs", per_sample(c.link_regs));
  out.add("router.message_slots_peak", static_cast<double>(c.slots_peak));

  out.add("routing.decisions", static_cast<double>(c.decisions));
  out.add("routing.cache_lookups", static_cast<double>(c.cache_lookups));
  out.add("routing.cache_hit_ratio", ratio(static_cast<double>(c.cache_hits),
                                           static_cast<double>(c.cache_lookups)));
  out.add("routing.candidates_offered_mean",
          ratio(static_cast<double>(c.offered), static_cast<double>(c.decisions)));
  out.add("routing.candidates_free_ratio",
          ratio(static_cast<double>(c.free), static_cast<double>(c.offered)));

  out.add("traffic.tick_s", s(Layer::TrafficTick));
  out.add("traffic.messages_created", static_cast<double>(c.created));

  out.add("inject.tick_s", s(Layer::InjectTick));
  out.add("inject.reconfigure_s", s(Layer::InjectReconfigure));
  out.add("inject.events_applied", static_cast<double>(c.events_applied));
  out.add("inject.events_rejected", static_cast<double>(c.events_rejected));
  out.add("inject.messages_flushed", static_cast<double>(c.flushed));
  out.add("inject.retransmissions", static_cast<double>(c.retransmissions));
  out.add("inject.aborts", static_cast<double>(c.aborts));

  out.add("stats.reduce_s", s(Layer::StatsReduce));
  out.add("core.setup.faults_s", s(Layer::SetupFaults));
  out.add("core.setup.algorithm_s", s(Layer::SetupAlgorithm));
  out.add("core.setup.network_s", s(Layer::SetupNetwork));

  out.add("campaign.setup_s", s(Layer::CampaignSetup));
  out.add("campaign.self_s", s(Layer::CampaignRunStreamed));
  out.add("campaign.sink_s", s(Layer::CampaignSink));
  out.add("campaign.run_s_p50", cf.run_ns.empty() ? 0.0 : percentile_ns_as(cf.run_ns, 0.50, 1e-9));
  out.add("campaign.run_s_p95", cf.run_ns.empty() ? 0.0 : percentile_ns_as(cf.run_ns, 0.95, 1e-9));
  out.add("campaign.worker_busy_share", cf.busy_share);
  out.add("campaign.runs_executed", static_cast<double>(cf.runs_executed));
  out.add("campaign.peak_retained_results", static_cast<double>(cf.peak_retained));

  out.add("trace.wall_s", seconds(traced_ns));
  out.add("trace.unattributed_s", s(Layer::Segment) + s(Layer::Run));
  out.add("trace.overhead_ratio", overhead);
}

// ---- single-run workloads -------------------------------------------------

/// One run of the program as a user runs it.
struct ProgramRun {
  std::string print;  ///< fingerprints of the run() and final results
  std::string error;  ///< failed output check, empty when correct
  std::int64_t setup_ns = 0;
  std::int64_t wall_ns = 0;
  std::int64_t loop_ns = 0;  ///< run() (+ drain and final snapshot)
  std::uint64_t cycles = 0;
};

/// The output checks shared by both passes: no watchdog trip and, for a
/// drained run, generated == delivered + aborted with nothing in flight.
std::string check_single(const SingleRun& w, const core::SimResult& run,
                         const core::SimResult& final, bool drained) {
  if (run.deadlock || final.deadlock) return "watchdog tripped";
  if (w.drain) {
    const auto& rel = final.reliability;
    if (!drained || rel.in_flight_end != 0 ||
        rel.generated != rel.delivered + rel.aborted) {
      return "accounting identity broken after drain: generated " +
             std::to_string(rel.generated) + ", delivered " + std::to_string(rel.delivered) +
             ", aborted " + std::to_string(rel.aborted) + ", in flight " +
             std::to_string(rel.in_flight_end);
    }
  }
  return {};
}

ProgramRun run_program(const SingleRun& w, std::uint64_t seed) {
  ProgramRun out;
  const std::int64_t t0 = now_ns();
  core::Simulator sim(parse_config(w.config, seed));
  const std::int64_t t1 = now_ns();
  const core::SimResult run = sim.run();
  core::SimResult final = run;
  if (w.drain) {
    sim.drain();
    final = sim.snapshot();
  }
  const std::int64_t t2 = now_ns();
  out.setup_ns = t1 - t0;
  out.wall_ns = t2 - t0;
  out.loop_ns = t2 - t1;
  out.cycles = final.cycles_run;
  out.print = fingerprint(run) + '|' + fingerprint(final);
  out.error = check_single(w, run, final, sim.network().drained());
  return out;
}

void check_repeat(Outcome& out, const std::string& print, std::string& first) {
  if (first.empty()) {
    first = print;
  } else if (print != first) {
    out.fail("simulated statistics differ between repetitions");
  }
}

Outcome single_untraced(const SingleRun& w, const Options& o) {
  Outcome out;
  std::vector<double> setup;
  std::string first;
  repeat_for(o.seconds, [&] {
    for (int i = 0; i < kSetupSamplesPerRep; ++i) {
      const std::int64_t t0 = now_ns();
      auto sim = std::make_unique<core::Simulator>(parse_config(w.config, o.seed));
      setup.push_back(seconds(now_ns() - t0));
    }
    const ProgramRun r = run_program(w, o.seed);
    setup.push_back(seconds(r.setup_ns));
    ++out.attempted;
    if (!r.error.empty()) out.fail(r.error);
    check_repeat(out, r.print, first);
    out.add("wall_s", seconds(r.wall_ns));
    out.add("sim_cycles_per_s", static_cast<double>(r.cycles) / seconds(r.loop_ns));
    out.add("cells_per_s", 1.0 / seconds(r.wall_ns));
  });
  out.add("setup_s", median(setup));
  out.add("peak_rss_mb", peak_rss_mb());
  return out;
}

Outcome single_traced(const SingleRun& w, const Options& o) {
  Outcome out;
  std::string first;
  Tracer last;
  repeat_for(o.seconds, [&] {
    const ProgramRun ref = run_program(w, o.seed);
    ++out.attempted;

    Tracer tr;
    Counters counters;
    std::optional<Pipeline> p;
    core::SimResult run;
    core::SimResult final;
    const std::int64_t t0 = now_ns();
    {
      auto seg = tr.scope(Layer::Segment);
      auto r = tr.scope(Layer::Run);
      p.emplace(parse_config(w.config, o.seed), tr);
      run = p->run();
      final = run;
      if (w.drain) {
        p->drain();
        final = p->snapshot();
      }
    }
    const std::int64_t traced_ns = now_ns() - t0;
    counters.add(*p);

    const std::string print = fingerprint(run) + '|' + fingerprint(final);
    const std::string error = check_single(w, run, final, p->network().drained());
    if (!error.empty()) {
      out.fail(error);
    } else if (print != ref.print) {
      out.fail("traced pipeline result differs from Simulator::run");
    }
    check_repeat(out, print, first);
    add_layer_metrics(out, tr, counters, CampaignFigures{}, traced_ns,
                      static_cast<double>(traced_ns) / static_cast<double>(ref.wall_ns));
    last = std::move(tr);
  });
  last.write_csv(o.out_dir + "/spans-" + w.name + "-seed" + std::to_string(o.seed) + ".csv");
  return out;
}

// ---- campaign-matrix ------------------------------------------------------

struct CampaignRun {
  CampaignObserver obs;
  campaign::StreamStats stats;
  std::size_t cells = 0;
  std::int64_t setup_ns = 0;
  std::int64_t wall_ns = 0;
  std::string rows;  ///< every row, for the repetition check
};

/// Counts the cells of one campaign that failed a check.
void check_campaign(Outcome& out, const CampaignRun& c, std::string& first) {
  out.attempted += c.cells;
  const std::size_t missing = c.cells - std::min(c.cells, c.obs.rows.size());
  if (c.obs.bad_cells + missing > 0) {
    out.fail(std::to_string(c.obs.bad_cells) + " cells deadlocked or malformed, " +
                 std::to_string(missing) + " missing",
             c.obs.bad_cells + missing);
  }
  check_repeat(out, c.rows, first);
}

void run_campaign(CampaignRun& c, std::uint64_t seed) {
  const std::int64_t t0 = now_ns();
  const campaign::CampaignSpec spec = make_spec(seed);
  spec.validate();
  c.cells = campaign::enumerate_cells(spec).size();
  c.setup_ns = now_ns() - t0;
  campaign::StreamOptions opts;
  opts.threads = kCampaignThreads;
  c.stats = campaign::run_streamed(spec, opts, &c.obs);
  c.wall_ns = now_ns() - t0;
  for (const std::string& row : c.obs.rows) c.rows += row + '\n';
}

Outcome campaign_untraced(const Options& o) {
  Outcome out;
  std::vector<double> setup;
  std::string first;
  repeat_for(o.seconds, [&] {
    for (int i = 0; i < kSetupSamplesPerRep; ++i) {
      const std::int64_t t0 = now_ns();
      const campaign::CampaignSpec spec = make_spec(o.seed);
      spec.validate();
      const auto cells = campaign::enumerate_cells(spec);
      setup.push_back(seconds(now_ns() - t0));
    }
    CampaignRun c;
    run_campaign(c, o.seed);
    setup.push_back(seconds(c.setup_ns));
    check_campaign(out, c, first);
    const double wall = seconds(c.wall_ns);
    out.add("wall_s", wall);
    out.add("sim_cycles_per_s", static_cast<double>(c.obs.cycles) / wall);
    out.add("cells_per_s", static_cast<double>(c.cells) / wall);
  });
  out.add("setup_s", median(setup));
  out.add("peak_rss_mb", peak_rss_mb());
  return out;
}

Outcome campaign_traced(const Options& o) {
  Outcome out;
  std::string first;
  Tracer last;
  repeat_for(o.seconds, [&] {
    CampaignRun ref;
    run_campaign(ref, o.seed);
    check_campaign(out, ref, first);

    // Segment 1: the campaign engine, hooks timed.
    Tracer tr;
    CampaignObserver obs(true, true);
    campaign::StreamStats stats;
    std::vector<campaign::CellPlan> cells;
    campaign::CampaignSpec spec;
    const std::int64_t t0 = now_ns();
    std::int64_t engine_ns = 0;
    {
      auto seg = tr.scope(Layer::Segment);
      {
        auto s = tr.scope(Layer::CampaignSetup);
        spec = make_spec(o.seed);
        spec.validate();
        cells = campaign::enumerate_cells(spec);
      }
      auto s = tr.scope(Layer::CampaignRunStreamed);
      campaign::StreamOptions opts;
      opts.threads = kCampaignThreads;
      opts.progress = [&obs](const campaign::Progress& p) { obs.on_progress(p); };
      obs.start();
      const std::int64_t e0 = now_ns();
      stats = campaign::run_streamed(spec, opts, &obs);
      engine_ns = now_ns() - e0;
      for (const auto& [a, b] : obs.sink_spans) tr.record(Layer::CampaignSink, s.index(), a, b);
    }
    const std::int64_t engine_wall_ns = now_ns() - t0;
    std::string rows;
    for (const std::string& row : obs.rows) rows += row + '\n';
    if (rows != ref.rows) out.fail("campaign rows differ between traced and untraced runs");

    // Segment 2: every run of the matrix replayed serially through the
    // pipeline; each must reproduce the engine's result.
    Counters counters;
    std::size_t k = 0;
    std::uint64_t mismatches = 0;
    const std::int64_t t1 = now_ns();
    {
      auto seg = tr.scope(Layer::Segment);
      for (const campaign::CellPlan& plan : cells) {
        for (int q = 0; q < plan.patterns; ++q, ++k) {
          core::SimConfig cfg = spec.base;
          cfg.algorithm = plan.algorithm;
          cfg.injection_rate = plan.rate;
          cfg.fault_count = plan.fault_count;
          cfg.seed = core::pattern_seed(spec.base.seed, plan.fault_count, q);
          tr.next_run();
          auto r = tr.scope(Layer::Run);
          core::SimResult result;
          try {
            Pipeline p(cfg, tr);
            result = p.run();
            counters.add(p);
          } catch (const std::runtime_error&) {
            // Undrawable fault pattern: the engine records an empty result.
          }
          if (k >= obs.run_prints.size() || fingerprint(result) != obs.run_prints[k]) {
            ++mismatches;
          }
        }
      }
    }
    const std::int64_t traced_ns = engine_wall_ns + (now_ns() - t1);
    out.attempted += k;
    if (mismatches > 0) {
      out.fail(std::to_string(mismatches) + " replayed runs differ from campaign::run_streamed",
               mismatches);
    }

    CampaignFigures cf;
    cf.run_ns = obs.run_ns;
    std::int64_t busy = 0;
    for (const std::int64_t v : obs.run_ns) busy += v;
    cf.busy_share = static_cast<double>(busy) /
                    (static_cast<double>(kCampaignThreads) * static_cast<double>(engine_ns));
    cf.runs_executed = stats.runs_executed;
    cf.peak_retained = stats.peak_retained_results;
    add_layer_metrics(out, tr, counters, cf, traced_ns,
                      static_cast<double>(engine_wall_ns) / static_cast<double>(ref.wall_ns));
    last = std::move(tr);
  });
  last.write_csv(o.out_dir + "/spans-campaign-matrix-seed" + std::to_string(o.seed) + ".csv");
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {kPaperHeadline.name, kTiledTransient.name,
                                                 "campaign-matrix"};
  return names;
}

Outcome run_workload(const Options& o) {
  for (const SingleRun* w : {&kPaperHeadline, &kTiledTransient}) {
    if (o.workload == w->name) return o.trace ? single_traced(*w, o) : single_untraced(*w, o);
  }
  if (o.workload == "campaign-matrix") {
    return o.trace ? campaign_traced(o) : campaign_untraced(o);
  }
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

}  // namespace perfbench
