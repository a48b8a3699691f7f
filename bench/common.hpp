#pragma once
// Scale flags, banner and table output of bench/paper_figures' figures.
//
// Every figure accepts (numbers parse as whole tokens; "6000x" is an error):
//   --full            paper-scale run (30k cycles, 10k warm-up, 10 fault
//                     patterns; also via FTMESH_FULL=1)
//   --cycles N --warmup N --patterns N --seed N   explicit overrides
//   --csv             emit CSV instead of the aligned table
//
// Reduced defaults keep every figure laptop-friendly; the shape of every
// series is stable at the reduced scale (see DESIGN.md item 7).

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "ftmesh/core/config.hpp"
#include "ftmesh/report/cli.hpp"
#include "ftmesh/report/csv.hpp"
#include "ftmesh/report/table.hpp"
#include "ftmesh/routing/registry.hpp"

namespace ftbench {

struct Scale {
  std::uint64_t cycles = 6000;
  std::uint64_t warmup = 2000;
  int patterns = 3;
  std::uint64_t seed = 1;
  bool csv = false;
  bool full = false;
};

inline Scale scale_from(const ftmesh::report::Cli& cli,
                        std::uint64_t cycles = 6000,
                        std::uint64_t warmup = 2000, int patterns = 3) {
  Scale s;
  s.full = cli.full_scale();
  s.cycles = s.full ? 30000 : cycles;
  s.warmup = s.full ? 10000 : warmup;
  s.patterns = s.full ? 10 : patterns;
  s.cycles = static_cast<std::uint64_t>(cli.get_int("cycles", static_cast<std::int64_t>(s.cycles)));
  s.warmup = static_cast<std::uint64_t>(cli.get_int("warmup", static_cast<std::int64_t>(s.warmup)));
  s.patterns = static_cast<int>(cli.get_int("patterns", s.patterns));
  s.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  s.csv = cli.flag("csv");
  return s;
}

/// The paper's base configuration: 10x10 mesh, 100-flit messages, 24 VCs.
inline ftmesh::core::SimConfig paper_config(const Scale& s) {
  ftmesh::core::SimConfig cfg;
  cfg.width = cfg.height = 10;
  cfg.message_length = 100;
  cfg.total_vcs = 24;
  cfg.total_cycles = s.cycles;
  cfg.warmup_cycles = s.warmup;
  cfg.seed = s.seed;
  return cfg;
}

inline void print_banner(const std::string& title, const std::string& paper_ref,
                         const Scale& s, std::ostream& out = std::cout) {
  out << "== " << title << " ==\n"
      << "   reproduces: " << paper_ref << "\n"
      << "   scale: " << s.cycles << " cycles (" << s.warmup
      << " warm-up), " << s.patterns << " fault pattern(s)"
      << (s.full ? " [paper scale]" : " [reduced; --full for paper scale]")
      << "\n\n";
}

/// Emits `table` as text or CSV depending on the scale flags.
inline void emit(const ftmesh::report::Table& table, const Scale& s,
                 std::ostream& out = std::cout) {
  if (!s.csv) {
    table.print(out);
    return;
  }
  ftmesh::report::CsvWriter csv(out);
  csv.row(table.headers());
  std::vector<std::string> row;
  for (std::size_t r = 0; r < table.rows(); ++r) {
    row.clear();
    for (std::size_t c = 0; c < table.cols(); ++c) row.push_back(table.cell(r, c));
    csv.row(row);
  }
}

/// The eleven series names in the paper's plotting order.
inline const std::vector<std::string>& series() {
  return ftmesh::routing::algorithm_names();
}

}  // namespace ftbench
