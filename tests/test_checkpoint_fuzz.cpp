// Seeded mutation fuzz of the campaign checkpoint readers: read_manifest,
// decode_record and load_and_repair_results.
//
// The corpus is a real checkpoint: a tiny streamed campaign (and one shard
// of it) written into a temp directory, plus a manifest carrying the
// `completed` line older builds wrote.  Each case applies one to four
// mutations (mutation_fuzz.hpp) to a seed — line-wise to manifest.txt
// (10k cases) and to results.jsonl (5k cases, each reading up to eight
// records twice), field-wise to a single record (20k cases) — and holds
// the contract:
//   - every reader either returns or throws CampaignError; nothing else
//     escapes, crashes or hangs (ctest's TIMEOUT catches a hang; the
//     sanitizer build runs this loop too);
//   - a record decode_record returns round-trips: encode_record writes it
//     and decode_record reads the same record back;
//   - load_and_repair_results returns only records of the campaign's
//     cells, and after its repair a second load returns the same records.

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ftmesh/campaign/checkpoint.hpp"
#include "ftmesh/campaign/error.hpp"
#include "ftmesh/campaign/merge.hpp"
#include "ftmesh/campaign/spec.hpp"
#include "ftmesh/campaign/stream.hpp"
#include "ftmesh/sim/rng.hpp"
#include "mutation_fuzz.hpp"

namespace {

namespace campaign = ftmesh::campaign;
namespace fs = std::filesystem;
using campaign::CampaignError;
using campaign::StoredCell;

campaign::CampaignSpec seed_spec() {
  campaign::CampaignSpec spec;
  spec.base.width = spec.base.height = 4;
  spec.base.message_length = 4;
  spec.base.warmup_cycles = 40;
  spec.base.total_cycles = 120;
  spec.base.seed = 7;
  spec.algorithms = {"PHop", "Duato"};
  spec.rates = {0.002, 0.005};
  spec.fault_counts = {0, 1};
  spec.patterns = 1;
  return spec;
}

std::size_t seed_cells() {
  static const std::size_t kCells =
      campaign::enumerate_cells(seed_spec()).size();
  return kCells;
}

std::string scratch_dir(const std::string& name) {
  const auto path =
      fs::path(testing::TempDir()) / ("ftmesh_checkpoint_fuzz_" + name);
  fs::remove_all(path);
  return path.string();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::trunc | std::ios::binary);
  os << text;
}

/// manifest.txt and results.jsonl of a whole run and of shard 1/2.
struct Seeds {
  std::vector<std::string> manifests;
  std::vector<std::string> results;
};

const Seeds& seeds() {
  static const Seeds kSeeds = [] {
    Seeds s;
    for (const int shard_count : {1, 2}) {
      campaign::StreamOptions options;
      options.threads = 1;
      options.shard = {shard_count - 1, shard_count};
      options.checkpoint_dir = scratch_dir("seed" + std::to_string(shard_count));
      campaign::run_streamed(seed_spec(), options, nullptr);
      s.manifests.push_back(ftmesh::fuzz::read_file(
          campaign::manifest_path(options.checkpoint_dir)));
      s.results.push_back(ftmesh::fuzz::read_file(
          campaign::results_path(options.checkpoint_dir)));
    }
    s.manifests.push_back(s.manifests.front() + "completed = 3\n");
    return s;
  }();
  return kSeeds;
}

const char* const kManifestTokens[] = {
    "ftmesh_campaign_manifest", "spec_hash", "cells", "shard_index",
    "shard_count", "completed", "=", "0x", "0xffffffffffffffff",
    "0x10000000000000000", "0xg", "#", " ", "\t", "\r", "\xff", "unknown"};

const char* const kRecordTokens[] = {
    "{", "}", "\"", ",", ":", "\\", "\\\"", "\\n", "\\u0001", "\"cell\"",
    "\"id\"", "\"algorithm\"", "\"rate\"", "\"\"", "{}", "nan", "inf",
    "0x", "\t", "\r", " ", "\x01", "\xff"};

const ftmesh::fuzz::Grammar kManifestGrammar{'\n', ftmesh::fuzz::kNumbers,
                                              kManifestTokens};
const ftmesh::fuzz::Grammar kResultsGrammar{'\n', ftmesh::fuzz::kNumbers,
                                             kRecordTokens};
const ftmesh::fuzz::Grammar kRecordGrammar{',', ftmesh::fuzz::kNumbers,
                                            kRecordTokens};

bool same(const StoredCell& a, const StoredCell& b) {
  return a.index == b.index && a.id == b.id && a.row == b.row;
}

bool same(const std::vector<StoredCell>& a, const std::vector<StoredCell>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) return false;
  }
  return true;
}

/// "" when `cell` survives encode_record then decode_record unchanged.
std::string round_trip(const StoredCell& cell) {
  std::string line;
  try {
    line = campaign::encode_record(cell);
    if (!same(campaign::decode_record(line), cell)) {
      return "re-encoded record decodes differently: " + line;
    }
  } catch (const std::exception& e) {
    return std::string("re-encoding a decoded record failed: ") + e.what();
  }
  return "";
}

/// The contract for one manifest text; "" or a description of a breach.
std::string check_manifest(const std::string& dir, const std::string& text,
                           bool& accepted) {
  accepted = false;
  write_file(campaign::manifest_path(dir), text);
  try {
    (void)campaign::read_manifest(dir);
  } catch (const CampaignError&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("an untyped error: ") + e.what();
  }
  accepted = true;
  return "";
}

/// The contract for one results.jsonl line.
std::string check_record(const std::string& line, bool& accepted) {
  accepted = false;
  StoredCell cell;
  try {
    cell = campaign::decode_record(line);
  } catch (const CampaignError&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("an untyped error: ") + e.what();
  }
  accepted = true;
  return round_trip(cell);
}

/// The contract for one results.jsonl text.
std::string check_results(const std::string& dir, const std::string& text,
                          bool& accepted) {
  accepted = false;
  write_file(campaign::results_path(dir), text);
  const std::size_t cells = seed_cells();
  std::vector<StoredCell> first;
  try {
    first = campaign::load_and_repair_results(dir, cells);
  } catch (const CampaignError&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("an untyped error: ") + e.what();
  }
  accepted = true;
  // Each record came through decode_record, whose round trip the record
  // loop checks.
  for (const auto& cell : first) {
    if (cell.index >= cells) return "a record past the campaign's cells";
  }
  try {
    if (!same(campaign::load_and_repair_results(dir, cells), first)) {
      return "reloading the repaired file returned other records";
    }
  } catch (const std::exception& e) {
    return std::string("reloading the repaired file failed: ") + e.what();
  }
  return "";
}

std::vector<std::string> record_lines() {
  std::vector<std::string> lines;
  for (const auto& text : seeds().results) {
    for (auto& line : ftmesh::fuzz::units_of(text, '\n')) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  return lines;
}

TEST(CheckpointFuzz, SeedsAreReadBack) {
  const std::string dir = scratch_dir("seeds");
  fs::create_directories(dir);
  for (const auto& text : seeds().manifests) {
    bool accepted = false;
    EXPECT_EQ(check_manifest(dir, text, accepted), "") << text;
    EXPECT_TRUE(accepted) << text;
  }
  for (const auto& line : record_lines()) {
    bool accepted = false;
    EXPECT_EQ(check_record(line, accepted), "") << line;
    EXPECT_TRUE(accepted) << line;
  }
  std::size_t records = 0;
  for (const auto& text : seeds().results) {
    write_file(campaign::results_path(dir), text);
    records += campaign::load_and_repair_results(dir, seed_cells()).size();
  }
  // The whole run plus shard 1/2's half of it.
  EXPECT_EQ(records, seed_cells() + seed_cells() / 2);
}

TEST(CheckpointFuzz, MutatedManifestsReadOrFailTyped) {
  const std::string dir = scratch_dir("manifest");
  fs::create_directories(dir);
  const auto& corpus = seeds().manifests;
  ftmesh::sim::Rng rng(20261020);
  constexpr int kCases = 10000;
  int accepted_cases = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string input = ftmesh::fuzz::mutate(
        corpus[static_cast<std::size_t>(i) % corpus.size()], corpus, rng,
        kManifestGrammar);
    bool accepted = false;
    ASSERT_EQ(check_manifest(dir, input, accepted), "")
        << "case " << i << ", manifest:\n" << input;
    accepted_cases += accepted ? 1 : 0;
  }
  // The mutations must leave some manifests valid, or the loop only ever
  // tests the error paths.
  EXPECT_GT(accepted_cases, kCases / 20);
}

TEST(CheckpointFuzz, MutatedRecordsDecodeOrFailTyped) {
  const auto corpus = record_lines();
  ftmesh::sim::Rng rng(20261021);
  constexpr int kCases = 20000;
  int accepted_cases = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string input = ftmesh::fuzz::mutate(
        corpus[static_cast<std::size_t>(i) % corpus.size()], corpus, rng,
        kRecordGrammar);
    bool accepted = false;
    ASSERT_EQ(check_record(input, accepted), "")
        << "case " << i << ", record: " << input;
    accepted_cases += accepted ? 1 : 0;
  }
  // A record has one exact shape, so most mutations break it; some must
  // still decode, or the loop only ever tests the error paths.
  EXPECT_GT(accepted_cases, kCases / 100);
}

TEST(CheckpointFuzz, MutatedResultsLoadRepairAndReloadTheSame) {
  const std::string dir = scratch_dir("results");
  fs::create_directories(dir);
  const auto& corpus = seeds().results;
  ftmesh::sim::Rng rng(20261022);
  constexpr int kCases = 5000;
  int accepted_cases = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string input = ftmesh::fuzz::mutate(
        corpus[static_cast<std::size_t>(i) % corpus.size()], corpus, rng,
        kResultsGrammar);
    bool accepted = false;
    ASSERT_EQ(check_results(dir, input, accepted), "")
        << "case " << i << ", results.jsonl:\n" << input;
    accepted_cases += accepted ? 1 : 0;
  }
  EXPECT_GT(accepted_cases, kCases / 20);
}

// Found by the record loop: a quoted number may hold what a raw token
// cannot (a ',' here), and an algorithm name may hold a control character
// that encode_record escapes in a form decode_record does not read.  Both
// decoded once and then failed to read back after re-encoding; each is
// refused now, naming the field.
TEST(CheckpointFuzz, RecordsThatWouldNotReadBackAreRefused) {
  const std::string line = record_lines().front();
  const auto refuses = [](const std::string& bad, const std::string& what) {
    try {
      (void)campaign::decode_record(bad);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const CampaignError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  const auto rate = line.find("\"rate\":") + 7;
  const auto rate_end = line.find(',', rate);
  refuses(line.substr(0, rate) + "\"1,5\"" + line.substr(rate_end),
          "(rate quoted)");
  refuses(line.substr(0, rate) + "\"\"" + line.substr(rate_end),
          "(rate quoted)");
  const auto algo = line.find("\"algorithm\":\"") + 13;
  refuses(line.substr(0, algo) + "\t" + line.substr(algo),
          "(control character in algorithm)");
  const auto cell = line.find("\"cell\":") + 7;
  const auto cell_end = line.find(',', cell);
  refuses(line.substr(0, cell) + "\"" + line.substr(cell, cell_end - cell) +
              "\"" + line.substr(cell_end),
          "(cell quoted)");
}

// Found beside the readers: merge sized its cell table by the first
// manifest's count before reading any record, so a corrupt count of 2^64-1
// threw std::length_error (and a large plausible one could allocate
// gigabytes).  It is now refused as missing cells.
TEST(CheckpointFuzz, MergeRefusesACorruptCellCountWithoutAllocatingIt) {
  const std::string dir = scratch_dir("merge_cells");
  fs::create_directories(dir);
  std::string manifest = seeds().manifests.front();
  const auto cells = manifest.find("cells = ");
  const auto cells_end = manifest.find('\n', cells);
  manifest.replace(cells, cells_end - cells, "cells = 18446744073709551615");
  write_file(campaign::manifest_path(dir), manifest);
  write_file(campaign::results_path(dir), seeds().results.front());
  std::ostringstream os;
  try {
    (void)campaign::merge_campaign({dir}, os);
    ADD_FAILURE() << "merge accepted a corrupt cell count";
  } catch (const CampaignError& e) {
    EXPECT_NE(std::string(e.what()).find("18446744073709551607 of "
                                         "18446744073709551615 cells missing "
                                         "(first: cell 8)"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
