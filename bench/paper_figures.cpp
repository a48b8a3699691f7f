// The paper's evaluation, IPPS'07 Figures 1-6, and every study built on it,
// from one pooled batch.
//
//   paper_figures [--figures 1,4,radix] [--full] [--cycles N] [--warmup N]
//                 [--patterns N] [--seed N] [--csv] [--rate R]
//                 [--iterations N]
//
// --figures picks figures, printed in the order given (default: the paper's
// six, 1,2,3,4,5,6).  Besides 1-6 it takes the studies:
//   vc-budget    A1  VC budget vs saturated throughput
//   selection    A2  random vs least-congested selection
//   misroute     A3  Fully-Adaptive misroute limit
//   analytic     A4  analytical model vs simulation
//   buffers      A5  buffer depth / message length
//   saturation   E1b saturation rate per algorithm (bisection)
//   detours      E2b detour overhead vs faults
//   radix        E3  mesh radix sweep
//   adaptivity   E4  measured channel-choice adaptivity
//   reliability      dynamic fault injection; exit 1 if its invariant fails
// --rate is the injection rate of Figure 3 (default 0.0020) and of detours
// (0.0015); --iterations is saturation's bisection depth (6, --full 9); the
// rest are common.hpp's scale flags, and each figure keeps its own
// reduced-scale cycle and pattern defaults.
//
// The figures share runs: Figures 4 and 5 are the throughput and latency of
// the same saturated runs, and Figure 1's rates are a subset of Figure 2's.
// So each figure body runs more than once.  A planning pass records the
// configs the figures ask for and prints to a null stream; then every new
// config is simulated once, all in one run_batch pool.  A figure whose next
// request depends on a result it does not have yet (saturation's bisection)
// stops asking for that pass, so planning and pooling repeat until a pass
// asks for nothing new.  Then the rendering pass prints the tables from the
// pooled results.
//
// A run whose watchdog tripped stopped early and would pull its figure's
// means towards a stalled network, so each one is named on stderr (figure,
// algorithm, rate, faulty nodes, seed) and the driver exits 1, at any
// scale; stdout is the same either way.

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "common.hpp"

#include "ftmesh/analysis/analytical_model.hpp"
#include "ftmesh/analysis/saturation.hpp"
#include "ftmesh/core/experiment.hpp"

namespace {

using ftmesh::core::SimConfig;
using ftmesh::core::SimResult;
using ftmesh::report::Table;
using Cli = ftmesh::report::Cli;

/// Answers the figures' run requests from the pooled results.  A request
/// it has no result for yet is recorded (once) and answered with nullopt;
/// run_pending() then simulates every recorded config in one batch.
struct Pool {
  std::vector<SimConfig> distinct;
  std::vector<bool> drained;       ///< per distinct config: drain() after run()
  std::vector<SimResult> results;  ///< of distinct[0, results.size())
  /// Per distinct config: the --figures names that asked for it.
  std::vector<std::string> figures;
  const char* figure = "";  ///< the figure whose requests are being answered
  bool failed = false;      ///< a figure's invariant failed: exit 1

  std::optional<SimResult> find(const SimConfig& c, bool drain = false) {
    std::size_t i = 0;
    while (i < distinct.size() && !(drained[i] == drain && distinct[i] == c)) {
      ++i;
    }
    if (i < results.size()) return results[i];
    if (i == distinct.size()) {
      distinct.push_back(c);
      drained.push_back(drain);
      figures.emplace_back();
    }
    note_figure(i);
    return std::nullopt;
  }

  /// Adds the current figure to the names that asked for config `i`.
  void note_figure(std::size_t i) {
    std::string& names = figures[i];
    if (("," + names + ",").find("," + std::string(figure) + ",") ==
        std::string::npos) {
      names += (names.empty() ? "" : ",") + std::string(figure);
    }
  }

  /// Prints every run whose watchdog tripped to `err`, one line each;
  /// true if there was one.  A tripped run stopped early, so the figures'
  /// means include a stalled network.
  bool report_stalls(std::ostream& err) const {
    bool any = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].deadlock) continue;
      const SimConfig& c = distinct[i];
      err << "paper_figures: watchdog tripped: figure " << figures[i] << ", "
          << c.algorithm << ", rate " << c.injection_rate << ", "
          << results[i].faulty_nodes << " faulty nodes, seed " << c.seed
          << "\n";
      any = true;
    }
    return any;
  }

  /// find(), with an empty result standing in until the config has run.
  SimResult run(const SimConfig& c, bool drain = false) {
    return find(c, drain).value_or(SimResult{});
  }

  /// Simulates the recorded configs that have no result; false if none.
  bool run_pending() {
    const auto first = static_cast<std::ptrdiff_t>(results.size());
    if (results.size() == distinct.size()) return false;
    const auto more = ftmesh::core::run_batch(
        {distinct.begin() + first, distinct.end()}, 0,
        {drained.begin() + first, drained.end()});
    results.insert(results.end(), more.begin(), more.end());
    return true;
  }
};

/// Mean over the fault patterns of one table cell.
SimResult cell_mean(Pool& pool, const SimConfig& base, int patterns) {
  std::vector<SimResult> runs;
  for (const auto& c : ftmesh::core::fault_pattern_sweep(base, patterns)) {
    runs.push_back(pool.run(c));
  }
  return ftmesh::core::aggregate(runs);
}

/// cell_mean() of `base` with `faults` random faulty nodes; a fault-free
/// cell has a single pattern.
SimResult fault_mean(Pool& pool, SimConfig base, int faults, int patterns) {
  base.fault_count = faults;
  return cell_mean(pool, base, faults == 0 ? 1 : patterns);
}

using Metric = double (*)(const SimResult&);

/// Figures 1 and 2: a row per rate, a column per algorithm, one run per
/// cell; metric(result) at `precision`.
Table rate_table(Pool& pool, const ftbench::Scale& scale,
                 const std::vector<double>& rates, Metric metric,
                 int precision) {
  std::vector<std::string> headers = {"rate (msg/node/cy)"};
  for (const auto& name : ftbench::series()) headers.push_back(name);
  Table table(headers);
  for (const double rate : rates) {
    const auto row = table.add_row();
    table.set(row, 0, rate, 4);
    for (std::size_t a = 0; a < ftbench::series().size(); ++a) {
      auto cfg = ftbench::paper_config(scale);
      cfg.algorithm = ftbench::series()[a];
      cfg.injection_rate = rate;
      table.set(row, a + 1, metric(pool.run(cfg)), precision);
    }
  }
  return table;
}

double accepted_flits(const SimResult& r) {
  return r.throughput.accepted_flits_per_node_cycle;
}

/// A row per algorithm, a column per knob setting (headers after the
/// first): metric of the saturated (100% load) paper config after
/// knob(cfg, column), as a fault_mean() over the scale's patterns.  A VC
/// budget below the algorithm's minimum prints n/a.
template <typename Knob>
Table saturated_sweep(Pool& pool, const ftbench::Scale& scale,
                      const std::vector<std::string>& algos,
                      const std::vector<std::string>& headers, Knob knob,
                      Metric metric = accepted_flits, int precision = 3) {
  Table table(headers);
  for (const auto& name : algos) {
    const auto row = table.add_row();
    table.set(row, 0, name);
    for (std::size_t col = 1; col < headers.size(); ++col) {
      auto cfg = ftbench::paper_config(scale);
      cfg.algorithm = name;
      cfg.injection_rate = -1.0;  // saturated sources = 100% load
      knob(cfg, col - 1);
      const ftmesh::topology::Mesh mesh(cfg.width, cfg.height);
      if (cfg.total_vcs < ftmesh::routing::min_vcs_required(name, mesh)) {
        table.set(row, col, std::string("n/a"));
        continue;
      }
      const auto agg = fault_mean(pool, cfg, cfg.fault_count, scale.patterns);
      table.set(row, col, metric(agg), precision);
    }
  }
  return table;
}

// Figure 1 — saturation throughput vs traffic generation rate.
//
// Paper: "Comparison between the throughput of routing algorithms against
// the traffic load in a 10x10 mesh with 100-flit message length and 24
// virtual channels per physical channel" (fault-free).
//
// Metric: accepted/offered flit ratio per injection rate (1.0 below
// saturation, falling past it).  Expected shape (paper Sec. 5): the
// free-choice class (Duato, Fully/Minimal-Adaptive, Boura) and the
// bonus-card schemes sustain load longer than PHop, which saturates first
// due to its unbalanced use of the low VC classes.
void figure1(const Cli& cli, Pool& pool, std::ostream& out) {
  const auto scale = ftbench::scale_from(cli, 6000, 2000, 1);
  ftbench::print_banner("Figure 1: saturation throughput vs injection rate",
                        "IPPS'07 Fig. 1 (10x10 mesh, 100-flit, 24 VCs, no faults)",
                        scale, out);
  const auto rates = scale.full
      ? std::vector<double>{0.0001, 0.0005, 0.0010, 0.0015, 0.0020, 0.0025,
                            0.0051, 0.0101, 0.0151, 0.0201, 0.0251}
      : std::vector<double>{0.0005, 0.0010, 0.0015, 0.0020,
                            0.0025, 0.0050, 0.0100, 0.0251};
  const auto accepted = [](const SimResult& r) {
    return r.throughput.accepted_fraction;
  };
  ftbench::emit(rate_table(pool, scale, rates, accepted, 3), scale, out);
  out << "\nShape check: accepted/offered ~1.0 at low rates for every "
         "algorithm;\nPHop drops earliest, bonus-card and Duato-based "
         "schemes last.\n";
}

// Figure 2 — average message latency vs traffic generation rate.
//
// Paper: "The average message latency of adaptive routing algorithms
// against the traffic load in a 10x10 mesh using 100-flit message length
// and 24 virtual channels per physical channel."
//
// Metric: mean network latency (injection -> tail ejection) in flit
// cycles.  The paper's bounded post-saturation values imply the in-network
// measure; the creation-based mean (which includes source queueing and
// diverges past saturation) is reported in a second block for reference.
void figure2(const Cli& cli, Pool& pool, std::ostream& out) {
  const auto scale = ftbench::scale_from(cli, 6000, 2000, 1);
  ftbench::print_banner("Figure 2: average message latency vs injection rate",
                        "IPPS'07 Fig. 2 (10x10 mesh, 100-flit, 24 VCs, no faults)",
                        scale, out);
  const auto rates = scale.full
      ? std::vector<double>{0.0001, 0.0005, 0.0010, 0.0015, 0.0020,
                            0.0025, 0.0051, 0.0101, 0.0151, 0.0201,
                            0.0251, 0.0301, 0.0351}
      : std::vector<double>{0.0005, 0.0010, 0.0015, 0.0020,
                            0.0025, 0.0050, 0.0150, 0.0351};
  const auto network = [](const SimResult& r) {
    return r.latency.mean_network;
  };
  const auto total = [](const SimResult& r) { return r.latency.mean; };
  out << "Mean network latency (injection -> tail ejection, flit cycles):\n";
  ftbench::emit(rate_table(pool, scale, rates, network, 1), scale, out);
  out << "\nMean total latency (creation -> tail ejection; includes "
         "source queueing):\n";
  ftbench::emit(rate_table(pool, scale, rates, total, 1), scale, out);
  out << "\nShape check: flat near the zero-load latency (~107 cycles) "
         "at low rates,\nknee at the saturation rate, PHop's knee "
         "earliest.\n";
}

// Figure 3 — virtual-channel utilisation per algorithm at 5% node faults.
//
// Paper: "Virtual channel utilization under uniform traffic in a 10x10
// mesh for adaptive routing algorithms with 100-flit message length and 24
// virtual channels per physical channel; (a) basic routing algorithms,
// (b) Nbc, Boura's fault-tolerant routing, and Duato's routing with Nbc
// and Pbc."
//
// Metric: per-VC-index busy fraction (%) averaged over all mesh link
// ports.  Expected shape: hop-class schemes load the low classes heavily
// (PHop worst), bonus cards and Duato class-I channels spread the load,
// and the free-choice algorithms use every channel near-uniformly.
void figure3(const Cli& cli, Pool& pool, std::ostream& out) {
  const auto scale = ftbench::scale_from(cli, 6000, 2000, 2);
  ftbench::print_banner("Figure 3: VC utilisation at 5% faults",
                        "IPPS'07 Fig. 3a/3b (10x10 mesh, 100-flit, 24 VCs, 5% faults)",
                        scale, out);

  std::vector<std::string> headers = {"algorithm"};
  for (int v = 0; v < 24; ++v) headers.push_back("VC" + std::to_string(v));
  headers.push_back("sum");
  Table table(headers);

  for (const auto& name : ftbench::series()) {
    auto base = ftbench::paper_config(scale);
    base.algorithm = name;
    base.injection_rate = cli.get_double("rate", 0.0020);
    base.fault_count = 5;
    base.collect_vc_usage = true;
    const auto agg = cell_mean(pool, base, scale.patterns);
    const auto row = table.add_row();
    table.set(row, 0, name);
    double sum = 0.0;
    for (std::size_t v = 0; v < agg.vc_usage.percent.size() && v < 24; ++v) {
      table.set(row, v + 1, agg.vc_usage.percent[v], 1);
      sum += agg.vc_usage.percent[v];
    }
    table.set(row, 25, sum, 1);
  }
  ftbench::emit(table, scale, out);
  out << "\nShape check: PHop/Pbc concentrate on the low hop classes; "
         "NHop/Nbc spread over\n~10 classes; the free-choice group "
         "(Duato, Minimal/Fully-Adaptive, Boura) uses\nall channels "
         "evenly; the last four VC columns are the Boppana-Chalasani "
         "ring\nchannels, busy only because of the 5% faults.\n";
}

// Figures 4 and 5 — normalized throughput and latency vs percentage of
// faulty nodes, from the same runs.
//
// Paper: "Comparison between the throughput of routing algorithms ..." and
// "The normalized message latency of routing algorithms in a 10x10 mesh
// with 100-flit message length, 24 virtual channels per physical channel,
// and various fault cases 0%, 5%, and 10%" at 100% traffic load, averaged
// over independent random fault sets.
//
// Figure 4 metric: accepted flits/node/cycle with saturated sources (the
// paper's 0.1-0.5 range matches the 10x10 bisection bound of 0.4).
// Expected shape: throughput degrades with fault percentage for every
// algorithm; hop-based schemes with bonus cards and the Duato combinations
// stay on top; PHop is lowest.
//
// Figure 5 metric: mean total latency (creation -> tail ejection, i.e.
// including source queueing) of the messages delivered in the measurement
// window, under saturated sources, averaged over random fault sets.  At
// 100% load this is the only latency measure that grows the way the
// paper's does: lower throughput means faster queue growth means higher
// latency, so the ordering mirrors Figure 4 inverted.
void fault_figure(const Cli& cli, Pool& pool, std::ostream& out,
                  const std::string& title, const std::string& paper_ref,
                  Metric metric, int precision, const char* shape) {
  const auto scale = ftbench::scale_from(cli, 6000, 2000, 3);
  ftbench::print_banner(title, paper_ref, scale, out);
  const auto faults = [](SimConfig& cfg, std::size_t f) {
    constexpr int fault_counts[] = {0, 5, 10};
    cfg.fault_count = fault_counts[f];
  };
  ftbench::emit(saturated_sweep(pool, scale, ftbench::series(),
                                {"algorithm", "0%", "5%", "10%"}, faults,
                                metric, precision),
                scale, out);
  out << shape;
}

void figure4(const Cli& cli, Pool& pool, std::ostream& out) {
  fault_figure(
      cli, pool, out, "Figure 4: normalized throughput vs fault percentage",
      "IPPS'07 Fig. 4 (10x10, 100-flit, 24 VCs, 100% load)", accepted_flits, 3,
      "\nShape check: every column decreases left to right; "
      "Duato-Pbc/Duato-Nbc/Nbc near\nthe top, PHop at the bottom, "
      "all within the 0.4 flits/node/cycle bisection bound.\n");
}

void figure5(const Cli& cli, Pool& pool, std::ostream& out) {
  fault_figure(
      cli, pool, out, "Figure 5: normalized latency vs fault percentage",
      "IPPS'07 Fig. 5 (10x10, 100-flit, 24 VCs, 100% load)",
      [](const SimResult& r) { return r.latency.mean; }, 1,
      "\nShape check: latency (flit cycles) increases with faults "
      "for every algorithm;\nthe ordering mirrors Figure 4 inverted.\n");
}

// Figure 6 — traffic load distribution around fault rings.
//
// Paper: "Three fault regions overlapping in a row are considered as a
// block fault region with height 3 and width 2, and two block fault
// regions with height and width 1. ... Traffic load distribution for
// routing algorithms around fault-rings in a 10x10 mesh using 100-flit
// message length, 24 virtual channels per physical channel, and various
// fault cases 0% and 10%."
//
// Metric: per-node switch load normalised to the busiest node (=100%);
// we report the mean over f-ring nodes vs the mean over all other active
// nodes.  The fault-free bars evaluate the same node positions (reference
// rings).  Expected shape: with faults the f-ring mean rises well above
// the rest of the network (rings act as hotspots), most severely for the
// channel-disciplined schemes (PHop); in the fault-free case the two
// groups are close.
void figure6(const Cli& cli, Pool& pool, std::ostream& out) {
  const auto scale = ftbench::scale_from(cli, 6000, 2000, 1);
  ftbench::print_banner("Figure 6: traffic load around f-rings",
                        "IPPS'07 Fig. 6 (fixed 2x3 + 1x1 + 1x1 block pattern)",
                        scale, out);

  // 2 wide x 3 tall block + two unit blocks, mid-mesh like the paper's
  // sketch; separated so they do not coalesce.
  const std::vector<ftmesh::fault::Rect> blocks = {
      {4, 3, 5, 5}, {1, 7, 1, 7}, {7, 1, 7, 1}};
  // Reference rings for the fault-free bars: same node positions as the
  // faulty runs, over the fault-free runs' own (empty) fault map.
  const ftmesh::topology::Mesh mesh(10, 10);
  const ftmesh::fault::FaultMap fault_free(mesh);
  const ftmesh::fault::FRingSet ref_rings(
      ftmesh::fault::FaultMap::from_blocks(mesh, blocks));

  Table table({"algorithm", "faults", "f-ring mean %", "other mean %",
               "f-ring peak %", "other peak %"});

  for (const auto& name : ftbench::series()) {
    for (const bool faulty : {false, true}) {
      auto cfg = ftbench::paper_config(scale);
      cfg.algorithm = name;
      cfg.injection_rate = -1.0;  // 100% load: bottlenecks show clearly
      cfg.collect_traffic_map = true;
      if (faulty) cfg.fault_blocks = blocks;
      const auto r = pool.run(cfg);
      const auto split = faulty ? r.traffic_split
                                : ftmesh::stats::summarize_traffic_split(
                                      r.node_traffic, fault_free, ref_rings);
      using ftmesh::report::format_double;
      table.add_row({name, faulty ? "8 nodes" : "0%",
                     format_double(split.fring_mean_percent, 1),
                     format_double(split.other_mean_percent, 1),
                     format_double(split.fring_peak_percent, 1),
                     format_double(split.other_peak_percent, 1)});
    }
  }
  ftbench::emit(table, scale, out);
  out << "\nShape check: fault-free rows have similar f-ring/other "
         "means; faulty rows show\nthe f-ring mean well above the "
         "rest (hotspot), most pronounced for PHop/NHop,\nmildest for "
         "the bonus-card and Duato-based schemes.\n";
}

// ---------------------------------------------------------------- studies
//
// Ablations (A1-A5) and extensions (E1b-E4) of the paper's setup; DESIGN.md
// section 4 lists them.  Their findings are in EXPERIMENTS.md.

// A1 — virtual-channel budget sweep.  DESIGN.md item 2 fixes each
// algorithm's layout at 24 VCs per physical channel; this varies the budget
// and reports saturated throughput, quantifying the paper's claim that for
// the free-choice class "the amount of saturation throughput is affected by
// the number of virtual channels, not by the way of using them".
void vc_budget(const Cli& cli, Pool& pool, std::ostream& out) {
  const auto scale = ftbench::scale_from(cli, 5000, 1500, 1);
  ftbench::print_banner("Ablation A1: VC budget vs saturated throughput",
                        "extension of IPPS'07 Sec. 5 (fault-free, 100% load)",
                        scale, out);

  const std::vector<int> budgets = {8, 16, 24, 32};
  const std::vector<std::string> algos = {"Minimal-Adaptive", "Duato",
                                          "NHop", "Nbc", "PHop", "Duato-Nbc"};
  std::vector<std::string> headers = {"algorithm"};
  for (const int b : budgets) headers.push_back(std::to_string(b) + " VCs");
  const auto budget = [&](SimConfig& cfg, std::size_t b) {
    cfg.total_vcs = budgets[b];
  };
  ftbench::emit(saturated_sweep(pool, scale, algos, headers, budget), scale,
                out);
  out << "\nFinding: with deep 100-flit messages, extra VCs beyond an "
         "algorithm's minimum do\nnot raise saturated throughput (time-"
         "multiplexing many long worms over one\nphysical link slows "
         "each of them); the 24-VC budget matters because the\nhop-"
         "class schemes are infeasible below it (n/a cells).\n";
}

// A2 — selection function: random (the paper's conflict resolution) vs
// least-congested (pick the free channel with the most downstream credits).
void selection(const Cli& cli, Pool& pool, std::ostream& out) {
  const auto scale = ftbench::scale_from(cli, 5000, 1500, 2);
  ftbench::print_banner("Ablation A2: selection policy",
                        "extension of IPPS'07 Sec. 5 (100% load, 0% and 5% faults)",
                        scale, out);

  const std::vector<std::string> algos = {"Duato-Nbc", "Nbc", "Minimal-Adaptive",
                                          "PHop"};
  Table table({"algorithm", "faults", "random thr", "least-congested thr",
               "random lat", "least-congested lat"});

  for (const auto& name : algos) {
    for (const int faults : {0, 5}) {
      const auto row = table.add_row();
      table.set(row, 0, name);
      table.set(row, 1, std::to_string(faults) + "%");
      for (std::size_t p = 0; p < 2; ++p) {
        auto base = ftbench::paper_config(scale);
        base.algorithm = name;
        base.injection_rate = -1.0;
        using ftmesh::routing::SelectionPolicy;
        base.selection = p == 0 ? SelectionPolicy::Random
                                : SelectionPolicy::LeastCongested;
        const auto agg = fault_mean(pool, base, faults, scale.patterns);
        table.set(row, 2 + p, agg.throughput.accepted_flits_per_node_cycle, 3);
        table.set(row, 4 + p, agg.latency.mean_network, 1);
      }
    }
  }
  ftbench::emit(table, scale, out);
  out << "\nFinding: the selection policy moves throughput/latency by "
         "at most a few percent\nunder uniform traffic -- consistent "
         "with the paper's choice of random conflict\nresolution.\n";
}

// A3 — Fully-Adaptive misroute limit.  The paper fixes the cap at 10; this
// sweep shows what the cap buys (and costs) at saturation with and without
// faults.
void misroute(const Cli& cli, Pool& pool, std::ostream& out) {
  const auto scale = ftbench::scale_from(cli, 5000, 1500, 2);
  ftbench::print_banner("Ablation A3: Fully-Adaptive misroute limit",
                        "extension of IPPS'07 Sec. 5 (100% load)", scale, out);

  Table table({"misroute limit", "thr (0%)", "lat (0%)", "thr (5% faults)",
               "lat (5% faults)"});
  for (const int limit : {0, 2, 10, 32}) {
    const auto row = table.add_row();
    table.set(row, 0, std::to_string(limit));
    std::size_t col = 1;
    for (const int faults : {0, 5}) {
      auto base = ftbench::paper_config(scale);
      base.algorithm = "Fully-Adaptive";
      base.injection_rate = -1.0;
      base.misroute_limit = limit;
      // A tight VC budget (3 adaptive channels) makes "all shortest-path
      // channels busy" a real event; at 24 VCs the misroute tier never
      // fires under uniform traffic.
      base.total_vcs = 8;
      base.traffic = "hotspot";
      const auto agg = fault_mean(pool, base, faults, scale.patterns);
      table.set(row, col++, agg.throughput.accepted_flits_per_node_cycle, 3);
      table.set(row, col++, agg.latency.mean_network, 1);
    }
  }
  ftbench::emit(table, scale, out);
  out << "\nFinding: run at 8 VCs with hotspot traffic so the misroute "
         "condition (every\nshortest-path channel busy) actually "
         "fires.  Misrouting consistently HURTS\nhere -- non-minimal "
         "hops burn bandwidth precisely when the network is\n"
         "congested -- which matches the paper's own observation that "
         "Fully-Adaptive\nhas the lowest peak throughput and "
         "saturates quickest.  The cap bounds the\ndamage; an "
         "uncapped variant would also livelock.\n";
}

// A4 — analytical latency model vs simulation (the paper's future work):
// the open-queueing prediction (ftmesh::analysis) against the simulated
// mean network latency of Duato's routing on a fault-free mesh at
// sub-saturation loads.
void analytic(const Cli& cli, Pool& pool, std::ostream& out) {
  const auto scale = ftbench::scale_from(cli, 8000, 3000, 1);
  ftbench::print_banner("A4: analytical model vs simulation",
                        "IPPS'07 Sec. 6 future work (fault-free, Duato)",
                        scale, out);

  const ftmesh::analysis::AnalyticalModel model(10, 100, 24);
  out << "model: mean distance " << model.mean_distance()
      << ", zero-load latency " << model.zero_load_latency()
      << ", saturation rate " << model.saturation_rate()
      << " msg/node/cycle\n\n";

  Table table({"rate", "utilization", "model latency", "sim latency", "ratio"});
  for (const double frac : {0.1, 0.3, 0.5, 0.7, 0.85}) {
    const double rate = model.saturation_rate() * frac;
    auto cfg = ftbench::paper_config(scale);
    cfg.algorithm = "Duato";
    cfg.injection_rate = rate;
    const auto r = pool.run(cfg);
    const double predicted = model.predict_latency(rate);
    const auto row = table.add_row();
    table.set(row, 0, rate, 5);
    table.set(row, 1, model.utilization(rate), 2);
    table.set(row, 2, predicted, 1);
    table.set(row, 3, r.latency.mean_network, 1);
    table.set(row, 4, r.latency.mean_network / predicted, 2);
  }
  ftbench::emit(table, scale, out);
  out << "\nShape check: both curves start at the zero-load latency "
         "and rise with load;\nthe first-order model under-counts "
         "contention near saturation (ratio grows).\n";
}

// A5 — input-buffer depth and message length sensitivity.  DESIGN.md item 1
// fixes the per-VC FIFO depth at 2 flits (the paper never states its buffer
// size) and the paper fixes 100-flit messages "since 32, 64, or 100-flit
// messages are commonly considered".  This sweeps both knobs for one
// representative of each channel-discipline family.
void buffers(const Cli& cli, Pool& pool, std::ostream& out) {
  const auto scale = ftbench::scale_from(cli, 5000, 1500, 1);
  ftbench::print_banner("Ablation A5: buffer depth / message length",
                        "sensitivity of the IPPS'07 setup choices (100% load)",
                        scale, out);

  const std::vector<std::string> algos = {"Nbc", "Duato-Nbc", "Minimal-Adaptive"};
  out << "Buffer-depth sweep (100-flit messages):\n";
  const auto depth = [](SimConfig& cfg, std::size_t i) {
    constexpr int depths[] = {1, 2, 4, 8};
    cfg.buffer_depth = depths[i];
  };
  ftbench::emit(saturated_sweep(pool, scale, algos,
                                {"algorithm", "depth 1", "depth 2", "depth 4",
                                 "depth 8"},
                                depth),
                scale, out);
  out << "\nMessage-length sweep (depth-2 buffers; the paper's "
         "'32, 64, or 100 flits'):\n";
  const auto length = [](SimConfig& cfg, std::size_t i) {
    constexpr std::uint32_t lengths[] = {16, 32, 64, 100};
    cfg.message_length = lengths[i];
  };
  ftbench::emit(saturated_sweep(pool, scale, algos,
                                {"algorithm", "16 flits", "32 flits",
                                 "64 flits", "100 flits"},
                                length),
                scale, out);
  out << "\nFinding: deeper buffers help modestly (more slack per "
         "worm); shorter messages\nraise accepted throughput (shorter "
         "channel holding times).  Neither knob\nreorders the "
         "algorithms, supporting the paper's fixed choices.\n";
}

// E1b — empirical saturation rate per algorithm.  Paper Sec. 5.1: "NHop
// starts to saturate after 0.066 and PHop shows signs of saturation at
// about 0.045" (the paper's rate units are internally inconsistent with its
// own figures; what is reproducible is the ORDER of the knees).  This
// bisects each algorithm's saturation injection rate on the fault-free
// 10x10 mesh, one probe of every algorithm per pool round.
void saturation(const Cli& cli, Pool& pool, std::ostream& out) {
  const auto scale = ftbench::scale_from(cli, 5000, 1500, 1);
  ftbench::print_banner("E1b: saturation points",
                        "IPPS'07 Sec. 5.1 saturation-rate claims (fault-free)",
                        scale, out);

  ftmesh::analysis::SaturationOptions opts;
  opts.lo = 0.0002;
  opts.hi = 0.01;
  opts.iterations = static_cast<int>(cli.get_int("iterations", scale.full ? 9 : 6));

  Table table({"algorithm", "saturation rate (msg/node/cy)",
               "accepted at knee", "simulations"});
  for (const auto& name : ftbench::series()) {
    auto cfg = ftbench::paper_config(scale);
    cfg.algorithm = name;
    ftmesh::analysis::SaturationSearch search(cfg, opts);
    while (!search.done()) {
      const auto probe = pool.find(search.probe());
      if (!probe) break;  // recorded; a later pass continues from here
      search.record(probe->throughput.accepted_fraction);
    }
    const auto& r = search.result();
    const auto row = table.add_row();
    table.set(row, 0, name);
    table.set(row, 1, r.rate, 5);
    table.set(row, 2, r.accepted, 3);
    table.set(row, 3, std::to_string(r.simulations));
  }
  ftbench::emit(table, scale, out);
  out << "\nShape check: NHop's knee sits above PHop's (the paper "
         "reports 0.066 vs 0.045 in\nits own units); the remaining "
         "algorithms cluster within the bisection\nresolution -- "
         "increase --iterations (or --full) to separate them.\n";
}

// E2b — detour overhead per algorithm vs fault percentage: the mechanism
// behind the paper's Section 5.2.  Fault rings force non-minimal hops, and
// the channel-disciplined schemes pay for them twice (longer paths AND
// low-class channel congestion).  Reports mean hops, mean non-minimal hops,
// and the fraction of delivered messages that used a Boppana-Chalasani ring
// channel.
void detours(const Cli& cli, Pool& pool, std::ostream& out) {
  const auto scale = ftbench::scale_from(cli, 5000, 1500, 3);
  ftbench::print_banner("Extension E2b: detour overhead vs faults",
                        "mechanism behind IPPS'07 Sec. 5.2 (moderate load)",
                        scale, out);

  Table table({"algorithm", "faults", "mean hops", "mean non-minimal",
               "ring users %"});
  for (const auto& name : ftbench::series()) {
    for (const int faults : {0, 5, 10}) {
      auto base = ftbench::paper_config(scale);
      base.algorithm = name;
      base.injection_rate = cli.get_double("rate", 0.0015);
      const auto agg = fault_mean(pool, base, faults, scale.patterns);
      const auto row = table.add_row();
      table.set(row, 0, name);
      table.set(row, 1, std::to_string(faults) + "%");
      table.set(row, 2, agg.latency.mean_hops, 2);
      table.set(row, 3, agg.latency.mean_misroutes, 3);
      table.set(row, 4, 100.0 * agg.latency.ring_message_fraction, 2);
    }
  }
  ftbench::emit(table, scale, out);
  out << "\nShape check: 0% rows have ~6.6 mean hops (uniform-traffic "
         "mean distance) and\nzero ring users; detours and ring usage "
         "grow with the fault percentage.\n";
}

// E3 — mesh radix sweep.  The paper fixes radix 10 "since radix 10 has been
// used in many previous studies"; this checks that the algorithm ranking is
// not an artifact of that choice by sweeping k x k meshes.  The VC budget
// scales with the PHop class count (diameter + 1 + 4 ring + 1 spare) so
// every algorithm stays feasible at every radix.
void radix(const Cli& cli, Pool& pool, std::ostream& out) {
  const auto scale = ftbench::scale_from(cli, 5000, 1500, 2);
  ftbench::print_banner("Extension E3: radix sweep",
                        "robustness of IPPS'07 rankings across mesh sizes",
                        scale, out);

  const std::vector<int> radices = scale.full ? std::vector<int>{6, 8, 10, 12, 16}
                                              : std::vector<int>{6, 8, 10, 12};
  const std::vector<std::string> algos = {"PHop", "NHop", "Nbc", "Duato-Nbc",
                                          "Minimal-Adaptive"};

  std::vector<std::string> headers = {"algorithm"};
  for (const int k : radices) {
    headers.push_back(std::to_string(k) + "x" + std::to_string(k));
  }
  const auto size = [&](SimConfig& cfg, std::size_t i) {
    const int k = radices[i];
    cfg.width = cfg.height = k;
    cfg.total_vcs = 2 * (k - 1) + 1 + ftmesh::router::kMsgTypeCount + 1;
    cfg.fault_count = k * k / 20;  // ~5% faults at every radix
  };
  ftbench::emit(saturated_sweep(pool, scale, algos, headers, size), scale,
                out);
  out << "\nShape check: per-node throughput falls as ~1/k (bisection "
         "scaling) at every\nradix, and the relative ranking of the "
         "algorithms is stable across sizes.\n";
}

// E4 — measured adaptivity per algorithm.  The paper's entire analysis
// (Sec. 5/6) hinges on "flexibility in choosing the virtual channels": the
// free-choice category vs the disciplined category.  This measures that
// flexibility directly: the mean number of legal (direction, VC) candidates
// per routing decision, and how many of them were actually free, at 100%
// load with and without faults.
void adaptivity(const Cli& cli, Pool& pool, std::ostream& out) {
  const auto scale = ftbench::scale_from(cli, 5000, 1500, 2);
  ftbench::print_banner("Extension E4: measured channel-choice adaptivity",
                        "the explanatory variable of IPPS'07 Sec. 5/6",
                        scale, out);

  Table table({"algorithm", "faults", "offered/decision", "free/decision",
               "thr (flits/node/cy)"});
  for (const auto& name : ftbench::series()) {
    for (const int faults : {0, 5}) {
      auto base = ftbench::paper_config(scale);
      base.algorithm = name;
      base.injection_rate = -1.0;
      const auto agg = fault_mean(pool, base, faults, scale.patterns);
      const auto row = table.add_row();
      table.set(row, 0, name);
      table.set(row, 1, std::to_string(faults) + "%");
      table.set(row, 2, agg.adaptivity.mean_offered, 2);
      table.set(row, 3, agg.adaptivity.mean_free, 2);
      table.set(row, 4, agg.throughput.accepted_flits_per_node_cycle, 3);
    }
  }
  ftbench::emit(table, scale, out);
  out << "\nShape check: the free-choice category offers an order of "
         "magnitude more\nchannels per decision than PHop (whose class "
         "discipline offers ~1-2); the\nbonus-card schemes sit in "
         "between -- exactly the paper's categorization,\nnow as a "
         "number.\n";
}

// Reliability under dynamic faults.  The paper evaluates static fault
// patterns fixed before warm-up; this drives the dynamic fault engine
// instead: nodes fail *while traffic is in flight* following a seeded
// Poisson arrival process, severed worms are flushed and retransmitted from
// the source, and the f-ring set is rebuilt incrementally around every
// event.  Swept dimension: the fault arrival rate (failures per cycle),
// across every algorithm.
//
// Each run finishes with a drain phase (generation stopped, clock running)
// so the accounting identity holds: generated == delivered + aborted.
// Expected shape: higher arrival rates flush and retransmit more messages
// and depress post-fault throughput; delivery stays lossless (no message
// silently vanishes) and no watchdog trips for any algorithm.  A broken
// invariant prints FAIL and makes the driver exit 1.
void reliability(const Cli& cli, Pool& pool, std::ostream& out) {
  const auto scale = ftbench::scale_from(cli, 6000, 2000, 3);
  ftbench::print_banner(
      "Reliability: dynamic fault injection",
      "extension of IPPS'07 Sec. 5 (runtime failures + recovery)", scale, out);

  // Failures per cycle, starting after warm-up.  20-flit messages keep the
  // reduced-scale drain short; the recovery protocol is length-agnostic.
  const std::vector<double> arrival_rates = {0.0005, 0.001, 0.002};
  const int failures = 4;

  Table table({"algorithm", "arrival_rate", "events", "delivered", "aborted",
               "retrans", "recovery_p95", "post_fault_thpt", "watchdog"});
  bool ok = true;
  for (const auto& name : ftbench::series()) {
    for (const double arrival_rate : arrival_rates) {
      auto cfg = ftbench::paper_config(scale);
      cfg.algorithm = name;
      cfg.message_length = 20;
      cfg.injection_rate = 0.01;  // 0.2 flits/node/cycle, below saturation
      cfg.fault_schedule = "random:count=" + std::to_string(failures) +
                           ",rate=" + std::to_string(arrival_rate) +
                           ",start=" + std::to_string(scale.warmup);
      const auto r = pool.run(cfg, /*drain=*/true);
      const auto& rel = r.reliability;
      const auto row = table.add_row();
      table.set(row, 0, name);
      table.set(row, 1, arrival_rate, 4);
      table.set(row, 2, std::to_string(rel.fault_events_applied) + "+" +
                            std::to_string(rel.fault_events_rejected) + "rej");
      table.set(row, 3, static_cast<double>(rel.delivered), 0);
      table.set(row, 4, static_cast<double>(rel.aborted), 0);
      table.set(row, 5, static_cast<double>(rel.retransmissions), 0);
      table.set(row, 6, rel.recovery_latency_p95, 1);
      table.set(row, 7, rel.post_fault_throughput, 4);
      table.set(row, 8, r.deadlock ? "TRIP" : "ok");
      const bool accounted =
          rel.generated == rel.delivered + rel.aborted + rel.in_flight_end &&
          rel.in_flight_end == 0;
      ok = ok && !r.deadlock && accounted;
    }
  }
  ftbench::emit(table, scale, out);
  out << "\nInvariants: every message delivered or aborted after the "
         "drain (no leaks), no\nwatchdog trips; retransmissions grow "
         "with the fault arrival rate.\n"
      << (ok ? "PASS" : "FAIL") << "\n";
  // Planning passes see empty results, which hold the invariant, so only
  // pooled results can set this.
  pool.failed = pool.failed || !ok;
}

using FigureFn = void (*)(const Cli&, Pool&, std::ostream&);
using Figure = std::pair<const char*, FigureFn>;

/// The names --figures takes, in the order the usage lists them.
constexpr Figure kFigures[] = {
    {"1", figure1},           {"2", figure2},
    {"3", figure3},           {"4", figure4},
    {"5", figure5},           {"6", figure6},
    {"vc-budget", vc_budget}, {"selection", selection},
    {"misroute", misroute},   {"buffers", buffers},
    {"analytic", analytic},   {"saturation", saturation},
    {"detours", detours},     {"radix", radix},
    {"adaptivity", adaptivity}, {"reliability", reliability}};

/// --figures as a comma list of names (empty items skipped).
std::vector<Figure> parse_figures(const Cli& cli) {
  std::vector<Figure> figures;
  std::istringstream list(cli.get("figures", "1,2,3,4,5,6"));
  for (std::string name; std::getline(list, name, ',');) {
    if (name.empty()) continue;
    const auto* it = std::find_if(
        std::begin(kFigures), std::end(kFigures),
        [&](const auto& figure) { return name == figure.first; });
    if (it == std::end(kFigures)) {
      std::string known;
      for (const auto& figure : kFigures) {
        known += (known.empty() ? "" : ", ") + std::string(figure.first);
      }
      throw std::invalid_argument("bad value for --figures: " + name +
                                  " is not one of " + known);
    }
    figures.push_back(*it);
  }
  if (figures.empty()) {
    throw std::invalid_argument("--figures names no figure");
  }
  return figures;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  try {
    cli.reject_unknown({"figures", "full", "cycles", "warmup", "patterns",
                        "seed", "csv", "rate", "iterations"});
    const auto figures = parse_figures(cli);

    Pool pool;
    std::ostream planning(nullptr);  // discards the planning passes' output
    do {
      for (const auto& [name, figure] : figures) {
        pool.figure = name;
        figure(cli, pool, planning);
      }
    } while (pool.run_pending());
    std::cerr << "paper_figures: " << pool.distinct.size()
              << " distinct simulations\n";
    const bool stalled = pool.report_stalls(std::cerr);
    for (const auto& [name, figure] : figures) figure(cli, pool, std::cout);
    return pool.failed || stalled ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "paper_figures: " << e.what() << "\n";
    return 1;
  }
}
