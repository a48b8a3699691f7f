// Tests for the campaign (experiment-matrix) runner: the matrix shape and
// order, per-cell results and the CSV, through campaign::run_streamed with
// a sink that keeps every cell.

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "ftmesh/campaign/csv.hpp"
#include "ftmesh/campaign/error.hpp"
#include "ftmesh/campaign/stream.hpp"
#include "ftmesh/core/experiment.hpp"
#include "ftmesh/fault/fault_model.hpp"
#include "ftmesh/report/csv.hpp"
#include "ftmesh/trace/metrics_recorder.hpp"

namespace {

using ftmesh::campaign::CampaignSpec;
using ftmesh::campaign::CellRecord;
using ftmesh::core::pattern_seed;

/// Runs the whole matrix and returns every cell, in cell order.
std::vector<CellRecord> run_campaign(const CampaignSpec& spec) {
  struct Collector : ftmesh::campaign::CellSink {
    std::vector<CellRecord> cells;
    void on_cell(const CellRecord& record) override { cells.push_back(record); }
  } collector;
  ftmesh::campaign::StreamOptions options;
  options.threads = spec.threads;
  ftmesh::campaign::run_streamed(spec, options, &collector);
  return std::move(collector.cells);
}

CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.base.width = spec.base.height = 6;
  spec.base.message_length = 8;
  spec.base.warmup_cycles = 200;
  spec.base.total_cycles = 1000;
  spec.base.seed = 9;
  spec.algorithms = {"Minimal-Adaptive", "Nbc"};
  spec.rates = {0.001, 0.004};
  spec.fault_counts = {0, 3};
  spec.patterns = 2;
  return spec;
}

TEST(Campaign, MatrixShapeAndOrder) {
  const auto cells = run_campaign(tiny_spec());
  ASSERT_EQ(cells.size(), 2u * 2u * 2u);
  // Algorithm-major, then rate, then fault count.
  EXPECT_EQ(cells[0].plan.algorithm, "Minimal-Adaptive");
  EXPECT_EQ(cells[0].plan.rate, 0.001);
  EXPECT_EQ(cells[0].plan.fault_count, 0);
  EXPECT_EQ(cells[1].plan.fault_count, 3);
  EXPECT_EQ(cells[2].plan.rate, 0.004);
  EXPECT_EQ(cells[4].plan.algorithm, "Nbc");
}

TEST(Campaign, FaultFreeCellsSkipPatternAveraging) {
  const auto cells = run_campaign(tiny_spec());
  for (const auto& cell : cells) {
    if (cell.plan.fault_count == 0) {
      EXPECT_EQ(cell.runs.size(), 1u);
    } else {
      EXPECT_EQ(cell.runs.size(), 2u);
    }
    EXPECT_GT(cell.mean.latency.delivered, 0u);
  }
}

TEST(Campaign, EmptyDimensionsFallBackToBase) {
  CampaignSpec spec = tiny_spec();
  spec.algorithms.clear();
  spec.rates.clear();
  spec.fault_counts.clear();
  spec.base.algorithm = "Duato";
  spec.base.injection_rate = 0.002;
  spec.base.fault_count = 2;
  const auto cells = run_campaign(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].plan.algorithm, "Duato");
  EXPECT_EQ(cells[0].plan.fault_count, 2);
}

TEST(Campaign, ValidateRejectsBadInput) {
  auto spec = tiny_spec();
  spec.algorithms = {"NotAnAlgorithm"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.patterns = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.fault_counts = {99};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// The errors carry a machine-readable code so callers (CLI, engine) can
// distinguish "you typo'd an algorithm" from "that mesh can't hold 99
// faults" without string matching.
TEST(Campaign, ValidateErrorsAreTyped) {
  using ftmesh::campaign::CampaignSpecError;
  using Code = CampaignSpecError::Code;
  const auto code_of = [](const CampaignSpec& spec) {
    try {
      spec.validate();
    } catch (const CampaignSpecError& e) {
      return e.code();
    }
    ADD_FAILURE() << "validate() did not throw";
    return Code::base_config;
  };

  auto spec = tiny_spec();
  spec.algorithms = {"NotAnAlgorithm"};
  EXPECT_EQ(code_of(spec), Code::unknown_algorithm);

  spec = tiny_spec();
  spec.algorithms = {"Nbc", "Duato", "Nbc"};
  EXPECT_EQ(code_of(spec), Code::duplicate_algorithm);

  spec = tiny_spec();
  spec.rates = {0.004, -0.001};
  EXPECT_EQ(code_of(spec), Code::invalid_rate);

  spec = tiny_spec();
  spec.rates = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_EQ(code_of(spec), Code::invalid_rate);

  spec = tiny_spec();
  spec.rates = {std::numeric_limits<double>::infinity()};
  EXPECT_EQ(code_of(spec), Code::invalid_rate);

  // Finite but beyond what a source can inject (injection_vcs messages per
  // cycle): such a rate would stall the arrival clock.
  spec = tiny_spec();
  spec.rates = {0.004, 1e308};
  EXPECT_EQ(code_of(spec), Code::invalid_rate);

  spec = tiny_spec();
  spec.rates = {1.5};  // injection_vcs = 1
  EXPECT_EQ(code_of(spec), Code::invalid_rate);

  spec = tiny_spec();
  spec.rates = {1.0};
  EXPECT_NO_THROW(spec.validate());

  spec = tiny_spec();
  spec.patterns = -3;
  EXPECT_EQ(code_of(spec), Code::invalid_patterns);

  spec = tiny_spec();
  spec.fault_counts = {-1};
  EXPECT_EQ(code_of(spec), Code::fault_count_out_of_range);

  spec = tiny_spec();  // 6x6 mesh: 36 nodes, so 36 faults leaves no mesh
  spec.fault_counts = {36};
  EXPECT_EQ(code_of(spec), Code::fault_count_out_of_range);

  spec = tiny_spec();
  spec.base.width = 0;
  EXPECT_EQ(code_of(spec), Code::base_config);

  // A valid spec still passes after all that.
  EXPECT_NO_THROW(tiny_spec().validate());
}

TEST(Campaign, CsvHasHeaderPlusOneRowPerCell) {
  const auto cells = run_campaign(tiny_spec());
  std::ostringstream os;
  ftmesh::report::CsvWriter csv(os);
  csv.row(ftmesh::campaign::csv_columns());
  for (const auto& cell : cells) csv.row(cell.row);
  int lines = 0;
  for (const char ch : os.str()) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, static_cast<int>(cells.size()) + 1);
  EXPECT_NE(os.str().find("accepted_fraction"), std::string::npos);
}

TEST(Campaign, PatternSeedsDistinctAndNonAliasing) {
  // Distinct patterns within a cell.
  const std::uint64_t s0 = pattern_seed(9, 3, 0);
  const std::uint64_t s1 = pattern_seed(9, 3, 1);
  const std::uint64_t s2 = pattern_seed(9, 3, 2);
  EXPECT_EQ(s0, 9u);  // pattern 0 is the base run, byte for byte
  EXPECT_NE(s0, s1);
  EXPECT_NE(s1, s2);
  EXPECT_NE(s0, s2);
  // The old seed+i scheme aliased adjacent-seed cells (seed 9 pattern 1 ==
  // seed 10 pattern 0); the hash must not.
  EXPECT_NE(pattern_seed(9, 3, 1), pattern_seed(10, 3, 0));
  // Pure function of the triple: campaign cells that differ only in
  // algorithm or rate replay identical fault sets.
  EXPECT_EQ(pattern_seed(9, 3, 1), pattern_seed(9, 3, 1));

  // The derived seeds draw genuinely different fault patterns.
  const ftmesh::topology::Mesh mesh(8, 8);
  std::set<std::vector<int>> patterns;
  for (int i = 0; i < 3; ++i) {
    auto rng = ftmesh::sim::Rng(pattern_seed(9, 3, i)).derive(0xFA);
    const auto map = ftmesh::fault::FaultMap::random(mesh, 3, rng);
    std::vector<int> blocked;
    for (int n = 0; n < mesh.node_count(); ++n) {
      if (map.blocked(mesh.coord_of(n))) blocked.push_back(n);
    }
    patterns.insert(blocked);
  }
  EXPECT_EQ(patterns.size(), 3u);
}

TEST(Campaign, ThreadCountIndependent) {
  auto spec = tiny_spec();
  spec.threads = 1;
  const auto serial = run_campaign(spec);
  spec.threads = 4;
  const auto parallel = run_campaign(spec);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].runs.size(), parallel[i].runs.size());
    for (std::size_t p = 0; p < serial[i].runs.size(); ++p) {
      EXPECT_DOUBLE_EQ(serial[i].runs[p].latency.mean,
                       parallel[i].runs[p].latency.mean);
      EXPECT_EQ(serial[i].runs[p].latency.delivered,
                parallel[i].runs[p].latency.delivered);
    }
    EXPECT_DOUBLE_EQ(serial[i].mean.latency.mean, parallel[i].mean.latency.mean);
  }
}

TEST(Campaign, MetricsCsvRowsFollowSamples) {
  auto spec = tiny_spec();
  spec.algorithms = {"Nbc"};
  spec.rates = {0.004};
  spec.base.metrics_interval = 250;
  const auto cells = run_campaign(spec);
  for (const auto& cell : cells) {
    for (const auto& run : cell.runs) {
      // Every run carries its own series: one sample per interval.
      ASSERT_EQ(run.metrics.samples.size(), 1000u / 250u);
      std::ostringstream os;
      ftmesh::trace::write_metrics_csv(os, run.metrics);
      std::size_t lines = 0;
      for (const char ch : os.str()) {
        if (ch == '\n') ++lines;
      }
      EXPECT_EQ(lines, 1 + run.metrics.samples.size());  // header + samples
      EXPECT_NE(os.str().find("ring_vcs_busy"), std::string::npos);
    }
  }
}

TEST(Campaign, DeterministicAcrossRuns) {
  const auto a = run_campaign(tiny_spec());
  const auto b = run_campaign(tiny_spec());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].mean.latency.mean, b[i].mean.latency.mean);
    EXPECT_EQ(a[i].mean.latency.delivered, b[i].mean.latency.delivered);
  }
}

}  // namespace
