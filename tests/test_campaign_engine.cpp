// Tests for the streaming campaign engine: deterministic cell addressing,
// checkpoint/resume, sharding + merge, and the flat-memory guarantee.
//
// The load-bearing property throughout is byte-identity: whatever the
// thread count, shard split or crash/resume history, the campaign CSV must
// come out byte-for-byte equal to one unsharded, uncheckpointed run.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ftmesh/campaign/checkpoint.hpp"
#include "ftmesh/campaign/csv.hpp"
#include "ftmesh/campaign/error.hpp"
#include "ftmesh/campaign/merge.hpp"
#include "ftmesh/campaign/progress.hpp"
#include "ftmesh/campaign/stream.hpp"
#include "ftmesh/report/csv.hpp"

namespace {

namespace campaign = ftmesh::campaign;

campaign::CampaignSpec engine_spec() {
  campaign::CampaignSpec spec;
  spec.base.width = spec.base.height = 4;
  spec.base.message_length = 4;
  spec.base.warmup_cycles = 80;
  spec.base.total_cycles = 240;
  spec.base.seed = 11;
  spec.algorithms = {"PHop", "Duato"};
  spec.rates = {0.002, 0.005};
  spec.fault_counts = {0, 2};
  spec.patterns = 2;
  return spec;
}

/// Sink that renders the campaign CSV exactly as the CLI does.
struct CsvSink : campaign::CellSink {
  std::ostringstream os;
  ftmesh::report::CsvWriter csv{os};
  CsvSink() { csv.row(campaign::csv_columns()); }
  void on_cell(const campaign::CellRecord& record) override {
    csv.row(record.row);
  }
};

std::string streamed_csv(const campaign::CampaignSpec& spec,
                         const campaign::StreamOptions& options,
                         campaign::StreamStats* stats = nullptr) {
  CsvSink sink;
  const auto s = campaign::run_streamed(spec, options, &sink);
  if (stats != nullptr) *stats = s;
  return sink.os.str();
}

/// The reference CSV: one unsharded, uncheckpointed streamed run.
std::string legacy_csv(const campaign::CampaignSpec& spec) {
  return streamed_csv(spec, {});
}

/// Fresh (empty, not-yet-created) checkpoint directory under the test tmp.
std::string fresh_dir(const std::string& name) {
  const auto path =
      std::filesystem::path(testing::TempDir()) / ("ftmesh_engine_" + name);
  std::filesystem::remove_all(path);
  return path.string();
}

TEST(CampaignEngine, ShardedKernelDoesNotChangeTheCsv) {
  // The spatially sharded Network::step (base.tiles / base.step_threads) is
  // an execution detail of each cell's simulation: any tiling must leave
  // every campaign CSV byte untouched.  (The keys do enter the spec hash —
  // like every base-config field, a replayed checkpoint re-runs the exact
  // config.)
  const auto spec = engine_spec();
  const std::string expected = legacy_csv(spec);
  for (const int tiles : {2, 4}) {
    auto sharded = spec;
    sharded.base.tiles = tiles;
    sharded.base.step_threads = 4;
    campaign::StreamOptions options;
    options.threads = 2;
    EXPECT_EQ(streamed_csv(sharded, options), expected) << "tiles=" << tiles;
  }
}

TEST(CampaignEngine, ThreadedShardedKernelPastTheClaimWindowCompletes) {
  // Campaign workers each stepping a tile-parallel network nest
  // parallel_for.  A waiting step once ran queued pool tasks, among them a
  // whole campaign worker, which then blocked on the claim window held by
  // the suspended step's own unfinished cell: with more cells than the
  // window (16 at 4 workers) this hung in most runs.
  campaign::CampaignSpec spec;
  spec.base.width = spec.base.height = 6;
  spec.base.message_length = 8;
  spec.base.warmup_cycles = 300;
  spec.base.total_cycles = 1200;
  spec.base.seed = 9;
  spec.algorithms = {"Nbc", "Duato-Nbc", "PHop"};
  spec.rates = {0.002, 0.004, 0.006};
  spec.fault_counts = {0, 3};
  spec.patterns = 3;
  const std::string expected = legacy_csv(spec);
  auto sharded = spec;
  sharded.base.tiles = 4;
  sharded.base.step_threads = 2;
  campaign::StreamOptions options;
  options.threads = 4;
  EXPECT_EQ(streamed_csv(sharded, options), expected);
}

TEST(CampaignEngine, CellIdsAreStableUniqueAndContentAddressed) {
  const auto spec = engine_spec();
  const auto cells = campaign::enumerate_cells(spec);
  ASSERT_EQ(cells.size(), 2u * 2u * 2u);
  std::set<std::uint64_t> ids;
  for (const auto& cell : cells) ids.insert(cell.id);
  EXPECT_EQ(ids.size(), cells.size());  // no collisions in the matrix

  // Pure function of (base seed, algorithm, rate, fault count)...
  EXPECT_EQ(campaign::cell_id(11, "PHop", 0.002, 2),
            campaign::cell_id(11, "PHop", 0.002, 2));
  // ...and sensitive to each coordinate.
  EXPECT_NE(campaign::cell_id(11, "PHop", 0.002, 2),
            campaign::cell_id(12, "PHop", 0.002, 2));
  EXPECT_NE(campaign::cell_id(11, "PHop", 0.002, 2),
            campaign::cell_id(11, "NHop", 0.002, 2));
  EXPECT_NE(campaign::cell_id(11, "PHop", 0.002, 2),
            campaign::cell_id(11, "PHop", 0.003, 2));
  EXPECT_NE(campaign::cell_id(11, "PHop", 0.002, 2),
            campaign::cell_id(11, "PHop", 0.002, 3));

  // Reshaping the matrix must not move surviving ids: dropping a rate
  // changes indices but not identities.
  auto reshaped = spec;
  reshaped.rates = {0.005};
  for (const auto& cell : campaign::enumerate_cells(reshaped)) {
    bool found = false;
    for (const auto& original : cells) {
      if (original.id == cell.id) {
        found = true;
        EXPECT_EQ(original.algorithm, cell.algorithm);
        EXPECT_EQ(original.rate, cell.rate);
        EXPECT_EQ(original.fault_count, cell.fault_count);
      }
    }
    EXPECT_TRUE(found) << "id not stable across matrix reshape";
  }
}

TEST(CampaignEngine, SpecHashIgnoresThreadsOnly) {
  auto spec = engine_spec();
  const auto h = campaign::spec_hash(spec);
  spec.threads = 7;
  EXPECT_EQ(campaign::spec_hash(spec), h);
  spec = engine_spec();
  spec.patterns = 3;
  EXPECT_NE(campaign::spec_hash(spec), h);
  spec = engine_spec();
  spec.rates.push_back(0.006);
  EXPECT_NE(campaign::spec_hash(spec), h);
  spec = engine_spec();
  spec.base.seed = 12;
  EXPECT_NE(campaign::spec_hash(spec), h);
}

TEST(CampaignEngine, ShardsPartitionExactly) {
  for (const int count : {1, 2, 3, 5}) {
    for (std::size_t index = 0; index < 23; ++index) {
      int owners = 0;
      for (int i = 0; i < count; ++i) {
        if (campaign::Shard{i, count}.owns(index)) ++owners;
      }
      EXPECT_EQ(owners, 1) << "cell " << index << " across " << count;
    }
  }
}

TEST(CampaignEngine, ParseShard) {
  const auto s = campaign::parse_shard("1/3");
  EXPECT_EQ(s.index, 1);
  EXPECT_EQ(s.count, 3);
  EXPECT_THROW(campaign::parse_shard("3/3"), campaign::CampaignError);
  EXPECT_THROW(campaign::parse_shard("-1/3"), campaign::CampaignError);
  EXPECT_THROW(campaign::parse_shard("2"), campaign::CampaignError);
  EXPECT_THROW(campaign::parse_shard("a/b"), campaign::CampaignError);
  EXPECT_THROW(campaign::parse_shard("1/0"), campaign::CampaignError);
}

void run_shards_and_merge(int shard_count, int threads) {
  const auto spec = engine_spec();
  const std::string expected = legacy_csv(spec);

  std::vector<std::string> dirs;
  for (int i = 0; i < shard_count; ++i) {
    const auto dir = fresh_dir("shard" + std::to_string(shard_count) + "_" +
                               std::to_string(i) + "_t" +
                               std::to_string(threads));
    campaign::StreamOptions options;
    options.threads = threads;
    options.shard = campaign::Shard{i, shard_count};
    options.checkpoint_dir = dir;
    campaign::run_streamed(spec, options, nullptr);
    dirs.push_back(dir);
  }

  std::ostringstream os;
  const auto report = campaign::merge_campaign(dirs, os);
  EXPECT_EQ(report.shards, static_cast<std::size_t>(shard_count));
  EXPECT_EQ(report.cells, 8u);
  EXPECT_EQ(os.str(), expected);
}

TEST(CampaignEngine, TwoShardMergeIsByteIdentical) {
  run_shards_and_merge(2, 1);
  run_shards_and_merge(2, 4);
}

TEST(CampaignEngine, ThreeShardMergeIsByteIdentical) {
  run_shards_and_merge(3, 1);
  run_shards_and_merge(3, 4);
}

TEST(CampaignEngine, MergeRefusesMissingShardsAndForeignCheckpoints) {
  const auto spec = engine_spec();
  const auto dir0 = fresh_dir("merge_missing_0");
  campaign::StreamOptions options;
  options.threads = 2;
  options.shard = campaign::Shard{0, 2};
  options.checkpoint_dir = dir0;
  campaign::run_streamed(spec, options, nullptr);

  // Half the matrix is missing.
  std::ostringstream os;
  EXPECT_THROW(campaign::merge_campaign({dir0}, os), campaign::CampaignError);

  // A shard of a different experiment cannot fill the gap.
  auto other = spec;
  other.base.seed = 99;
  const auto dir1 = fresh_dir("merge_missing_1");
  options.shard = campaign::Shard{1, 2};
  options.checkpoint_dir = dir1;
  campaign::run_streamed(other, options, nullptr);
  EXPECT_THROW(campaign::merge_campaign({dir0, dir1}, os),
               campaign::CampaignError);
}

TEST(CampaignEngine, ResumeAfterSinkAbortIsByteIdentical) {
  const auto spec = engine_spec();
  const std::string expected = legacy_csv(spec);
  const auto dir = fresh_dir("resume_abort");

  // A sink that dies after three cells, simulating an operator kill.
  struct AbortingSink : campaign::CellSink {
    int remaining = 3;
    void on_cell(const campaign::CellRecord&) override {
      if (--remaining < 0) throw std::runtime_error("killed");
    }
  } aborting;

  campaign::StreamOptions options;
  options.threads = 2;
  options.checkpoint_dir = dir;  // results.jsonl is flushed per cell
  EXPECT_THROW(campaign::run_streamed(spec, options, &aborting),
               std::runtime_error);

  campaign::StreamOptions resume;
  resume.threads = 2;
  resume.checkpoint_dir = dir;
  resume.resume = true;
  campaign::StreamStats stats;
  EXPECT_EQ(streamed_csv(spec, resume, &stats), expected);
  EXPECT_GE(stats.cells_restored, 3u);
  EXPECT_EQ(stats.cells_restored + stats.cells_completed, 8u);

  // Resuming an already-complete checkpoint replays everything.
  EXPECT_EQ(streamed_csv(spec, resume, &stats), expected);
  EXPECT_EQ(stats.cells_restored, 8u);
  EXPECT_EQ(stats.cells_completed, 0u);
  EXPECT_EQ(stats.runs_executed, 0u);
}

TEST(CampaignEngine, ResumeRepairsTruncatedResultsLog) {
  const auto spec = engine_spec();
  const std::string expected = legacy_csv(spec);
  const auto dir = fresh_dir("resume_truncated");

  campaign::StreamOptions options;
  options.threads = 4;
  options.checkpoint_dir = dir;
  campaign::run_streamed(spec, options, nullptr);

  // Chop the final record in half, the signature of a kill mid-append.
  const auto path = campaign::results_path(dir);
  std::string contents;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    contents = buffer.str();
  }
  const auto last_line = contents.rfind('\n', contents.size() - 2);
  ASSERT_NE(last_line, std::string::npos);
  const std::size_t cut = last_line + 1 + (contents.size() - last_line) / 2;
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(contents.data(), static_cast<std::streamsize>(cut));
  }

  campaign::StreamOptions resume;
  resume.threads = 4;
  resume.checkpoint_dir = dir;
  resume.resume = true;
  campaign::StreamStats stats;
  EXPECT_EQ(streamed_csv(spec, resume, &stats), expected);
  EXPECT_EQ(stats.cells_restored, 7u);
  EXPECT_EQ(stats.cells_completed, 1u);
}

TEST(CampaignEngine, ResumeRefusesSpecMismatchAndFreshDirRefusesManifest) {
  const auto spec = engine_spec();
  const auto dir = fresh_dir("resume_refuse");
  campaign::StreamOptions options;
  options.threads = 2;
  options.checkpoint_dir = dir;
  campaign::run_streamed(spec, options, nullptr);

  // Same directory, different experiment: refuse.
  auto other = spec;
  other.rates = {0.002};
  campaign::StreamOptions resume = options;
  resume.resume = true;
  EXPECT_THROW(campaign::run_streamed(other, resume, nullptr),
               campaign::CampaignError);

  // Fresh (non-resume) run onto an existing checkpoint: refuse rather than
  // silently clobber.
  EXPECT_THROW(campaign::run_streamed(spec, options, nullptr),
               campaign::CampaignError);

  // Resuming with a different shard identity is a different run, too.
  resume.shard = campaign::Shard{0, 2};
  EXPECT_THROW(campaign::run_streamed(spec, resume, nullptr),
               campaign::CampaignError);
}

TEST(CampaignEngine, ResumeRefusesManifestNumbersWithTrailingGarbage) {
  // Manifest numbers are read whole-token: "1junk" is not version 1, and a
  // fractional shard count is not a count.  Either refuses the resume
  // instead of reading a prefix.
  const auto spec = engine_spec();
  for (const auto& [key, bad] :
       {std::pair<std::string, std::string>{"ftmesh_campaign_manifest",
                                            "1junk"},
        std::pair<std::string, std::string>{"shard_count", "1.9"}}) {
    SCOPED_TRACE(key + " = " + bad);
    const auto dir = fresh_dir("manifest_" + key);
    campaign::StreamOptions options;
    options.checkpoint_dir = dir;
    campaign::run_streamed(spec, options, nullptr);

    const auto manifest = std::filesystem::path(dir) / "manifest.txt";
    std::ifstream in(manifest);
    std::ostringstream edited;
    std::string line;
    bool found = false;
    while (std::getline(in, line)) {
      if (line.rfind(key + " =", 0) == 0) {
        line = key + " = " + bad;
        found = true;
      }
      edited << line << "\n";
    }
    in.close();
    ASSERT_TRUE(found);
    std::ofstream(manifest) << edited.str();

    campaign::StreamOptions resume = options;
    resume.resume = true;
    try {
      campaign::run_streamed(spec, resume, nullptr);
      ADD_FAILURE() << "resume accepted the manifest";
    } catch (const campaign::CampaignError& e) {
      EXPECT_NE(std::string(e.what()).find("malformed manifest line"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CampaignEngine, ResumeAcceptsAnOlderManifestProgressLine) {
  // Older builds rewrote a `completed = N` progress line into the manifest
  // as cells retired; their checkpoint directories must still resume.
  const auto spec = engine_spec();
  const std::string expected = legacy_csv(spec);
  const auto dir = fresh_dir("manifest_completed");
  campaign::StreamOptions options;
  options.threads = 2;
  options.checkpoint_dir = dir;
  campaign::run_streamed(spec, options, nullptr);
  std::ofstream(std::filesystem::path(dir) / "manifest.txt", std::ios::app)
      << "completed = 8\n";

  campaign::StreamOptions resume = options;
  resume.resume = true;
  campaign::StreamStats stats;
  EXPECT_EQ(streamed_csv(spec, resume, &stats), expected);
  EXPECT_EQ(stats.cells_restored, 8u);
}

TEST(CampaignEngine, RecordRoundTripAndEscaping) {
  campaign::StoredCell cell;
  cell.index = 42;
  cell.id = 0xDEADBEEFCAFEF00DULL;
  cell.row.assign(campaign::csv_columns().size(), "0.0125");
  cell.row[0] = R"(we"ird, \algo)";  // algorithm column is JSON-escaped
  const auto line = campaign::encode_record(cell);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto back = campaign::decode_record(line);
  EXPECT_EQ(back.index, cell.index);
  EXPECT_EQ(back.id, cell.id);
  EXPECT_EQ(back.row, cell.row);
  EXPECT_THROW(campaign::decode_record(line.substr(0, line.size() / 2)),
               campaign::CampaignError);
  EXPECT_THROW(campaign::decode_record("not json"), campaign::CampaignError);
}

TEST(CampaignEngine, PeakRetainedResultsStaysFlat) {
  // A long campaign, five times the claim window (max(8, 4 x workers) = 16
  // cells at 4 threads), led by one slow saturated cell: while two workers
  // sit on its patterns the other two race ahead through cheap cells until
  // the window stops them, so the engine never holds more than window x
  // patterns per-pattern results, however many cells the matrix has.
  campaign::CampaignSpec spec;
  spec.base.width = spec.base.height = 6;
  spec.base.message_length = 8;
  spec.base.warmup_cycles = 100;
  spec.base.total_cycles = 1500;
  spec.base.seed = 5;
  spec.algorithms = {"PHop"};
  spec.rates.push_back(0.2);
  for (int i = 1; i < 80; ++i) spec.rates.push_back(0.0001 * i);
  spec.fault_counts = {2};
  spec.patterns = 2;

  campaign::StreamOptions options;
  options.threads = 4;
  const std::size_t window = 16;
  campaign::StreamStats stats;
  streamed_csv(spec, options, &stats);
  EXPECT_EQ(stats.cells_owned, 80u);
  EXPECT_EQ(stats.cells_completed, 80u);
  EXPECT_LE(stats.peak_retained_results,
            window * static_cast<std::size_t>(spec.patterns));
}

TEST(CampaignEngine, ProgressLineFormat) {
  EXPECT_EQ(campaign::format_progress_line(42, 96, 12.3, 4.0),
            "campaign: 42/96 cells (43.8%) | 12.3 cells/s | ETA 4s");
  EXPECT_EQ(campaign::format_progress_line(0, 10, 0.0, 0.0),
            "campaign: 0/10 cells (0.0%)");
  // Minutes and hours once the tail gets long.
  EXPECT_NE(
      campaign::format_progress_line(1, 1000, 0.5, 1998.0).find("ETA 33.3m"),
      std::string::npos);
  EXPECT_NE(
      campaign::format_progress_line(1, 100000, 0.5, 7200.0).find("ETA 2.0h"),
      std::string::npos);
}

}  // namespace
