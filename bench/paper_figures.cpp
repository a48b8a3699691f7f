// The paper's evaluation, IPPS'07 Figures 1-6, from one pooled batch.
//
//   paper_figures [--figures 1,4] [--full] [--cycles N] [--warmup N]
//                 [--patterns N] [--seed N] [--csv] [--rate R]
//
// --figures picks figures, printed in the order given (default: all six in
// order); --rate is Figure 3's injection rate; the rest are common.hpp's
// scale flags, and each figure keeps its own reduced-scale pattern default.
//
// The figures share runs: Figures 4 and 5 are the throughput and latency of
// the same saturated runs, and Figure 1's rates are a subset of Figure 2's.
// So each figure body runs twice.  The planning pass records the configs
// the figure asks for and prints to a null stream; then every distinct
// config is simulated once, all in one run_batch pool; then the rendering
// pass prints the tables from the pooled results.

#include <algorithm>

#include "common.hpp"

#include "ftmesh/core/experiment.hpp"

namespace {

using ftmesh::core::SimConfig;
using ftmesh::core::SimResult;
using ftmesh::report::Table;
using Cli = ftmesh::report::Cli;

/// Answers the figures' run requests.  Until `results` is filled it records
/// each distinct config and answers with an empty result; after, it answers
/// from `results`.
struct Pool {
  std::vector<SimConfig> distinct;
  std::vector<SimResult> results;  ///< run_batch(distinct)

  SimResult run(const SimConfig& c) {
    const auto it = std::find(distinct.begin(), distinct.end(), c);
    if (results.empty()) {
      if (it == distinct.end()) distinct.push_back(c);
      return {};
    }
    return results.at(static_cast<std::size_t>(it - distinct.begin()));
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

  const std::vector<int> fault_counts = {0, 5, 10};
  Table table({"algorithm", "0%", "5%", "10%"});

  for (const auto& name : ftbench::series()) {
    const auto row = table.add_row();
    table.set(row, 0, name);
    for (std::size_t f = 0; f < fault_counts.size(); ++f) {
      auto base = ftbench::paper_config(scale);
      base.algorithm = name;
      base.injection_rate = -1.0;  // saturated sources = 100% load
      base.fault_count = fault_counts[f];
      const int patterns = fault_counts[f] == 0 ? 1 : scale.patterns;
      table.set(row, f + 1, metric(cell_mean(pool, base, patterns)), precision);
    }
  }
  ftbench::emit(table, scale, out);
  out << shape;
}

void figure4(const Cli& cli, Pool& pool, std::ostream& out) {
  fault_figure(
      cli, pool, out, "Figure 4: normalized throughput vs fault percentage",
      "IPPS'07 Fig. 4 (10x10, 100-flit, 24 VCs, 100% load)",
      [](const SimResult& r) {
        return r.throughput.accepted_flits_per_node_cycle;
      },
      3,
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

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  try {
    cli.reject_unknown({"figures", "full", "cycles", "warmup", "patterns",
                        "seed", "csv", "rate"});
    using FigureFn = void (*)(const Cli&, Pool&, std::ostream&);
    const FigureFn all[] = {figure1, figure2, figure3,
                            figure4, figure5, figure6};
    std::vector<FigureFn> figures;
    for (const auto n : cli.get_int_list("figures", "1,2,3,4,5,6")) {
      if (n < 1 || n > 6) {
        throw std::invalid_argument("bad value for --figures: " +
                                    std::to_string(n) + " is not 1-6");
      }
      figures.push_back(all[n - 1]);
    }
    if (figures.empty()) {
      throw std::invalid_argument("--figures names no figure");
    }

    Pool pool;
    std::ostream planning(nullptr);  // discards the planning pass's output
    for (const auto figure : figures) figure(cli, pool, planning);
    pool.results = ftmesh::core::run_batch(pool.distinct);
    std::cerr << "paper_figures: " << pool.distinct.size()
              << " distinct simulations\n";
    for (const auto figure : figures) figure(cli, pool, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "paper_figures: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
