// Seeded mutation fuzz of the campaign-spec front end: a campaign command
// line through report::Cli, campaign::spec_from_cli, parse_shard and
// CampaignSpec::validate.
//
// The corpus is the `ftmesh campaign` command lines of the CI
// campaign-smoke job and of the campaign ctests (tools/CMakeLists.txt).
// The base-config flags (--width, --seed, ...) are `ftmesh`'s own and go
// through core's number parser, so here the matrix is built on a fixed
// 6x6 base config, the one those runs use.  Each case applies one to four
// word-wise mutations to a seed (mutation_fuzz.hpp) and holds the
// contract: the command line either yields a spec, which validate()
// passes or refuses with CampaignSpecError, or throws its typed error
// (CampaignSpecError from the matrix flags, CampaignError from --shard).
// Nothing else may escape, crash or hang (ctest's TIMEOUT catches a hang;
// the sanitizer build runs this loop too).  A spec that validates must
// enumerate exactly the cells its dimensions name.

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "ftmesh/campaign/error.hpp"
#include "ftmesh/campaign/spec.hpp"
#include "ftmesh/core/config.hpp"
#include "ftmesh/report/cli.hpp"
#include "ftmesh/sim/rng.hpp"
#include "mutation_fuzz.hpp"

namespace {

using ftmesh::campaign::CampaignError;
using ftmesh::campaign::CampaignSpec;
using ftmesh::campaign::CampaignSpecError;

const std::vector<std::string>& seed_corpus() {
  static const std::vector<std::string> kSeeds = {
      "campaign --width 6 --height 6 --length 8 --cycles 1200 --warmup 300 "
      "--seed 9 --algorithms Nbc,Duato-Nbc --rates 0.002,0.004,0.006 "
      "--fault-counts 0,3 --patterns 3 --threads 4 --out single.csv",
      "campaign --width 6 --height 6 --length 8 --cycles 1200 --warmup 300 "
      "--seed 9 --algorithms Nbc,Duato-Nbc --rates 0.002,0.004,0.006 "
      "--fault-counts 0,3 --patterns 3 --threads 4 --shard 0/2 --dir shard0 "
      "--out shard0.csv",
      "campaign --width 6 --height 6 --length 8 --cycles 1200 --warmup 300 "
      "--seed 9 --algorithms Nbc,Duato-Nbc --rates 0.002,0.004,0.006 "
      "--fault-counts 0,3 --patterns 3 --threads 1 --shard 1/2 --dir shard1 "
      "--out shard1.csv",
      "campaign --width 6 --height 6 --length 8 --cycles 1200 --warmup 300 "
      "--seed 10 --algorithms Nbc,Duato-Nbc --rates 0.002,0.004,0.006 "
      "--fault-counts 0,3 --patterns 3 --resume ckpt --out /dev/null",
      "campaign --width 4 --height 4 --cycles 60 --rates 0.01x "
      "--fault-counts 1 --patterns 2 --algorithms Duato",
      "campaign --width 4 --height 4 --cycles 60 --rates 0.01 "
      "--fault-counts 1x --patterns 2 --algorithms Duato",
  };
  return kSeeds;
}

/// Tokens of the campaign command line.
const char* const kTokens[] = {
    "--algorithms", "--rates",   "--fault-counts", "--patterns",
    "--threads",    "--shard",   "--resume",       "--dir",
    "--rates=",     "--shard=",  "PHop",           "Boura-FT",
    "Nbc",          "no-such",   ",",              "/",
    "0/1",          "3/2",       "-1/2",           "=",
    "--",           "-",         "\t",             "\xff"};

const ftmesh::fuzz::Grammar kCommandGrammar{' ', ftmesh::fuzz::kNumbers,
                                             kTokens};

ftmesh::core::SimConfig base_config() {
  ftmesh::core::SimConfig base;
  base.width = base.height = 6;
  base.message_length = 8;
  base.total_cycles = 1200;
  base.warmup_cycles = 300;
  base.seed = 9;
  return base;
}

/// The contract for one command line; returns a description of a breach,
/// or "".  `accepted` says whether the spec validated.
std::string check(const std::string& line, bool& accepted) {
  accepted = false;
  std::vector<std::string> words{"ftmesh"};
  std::istringstream is(line);
  for (std::string w; is >> w;) words.push_back(w);
  std::vector<const char*> argv;
  for (const auto& w : words) argv.push_back(w.c_str());
  const ftmesh::report::Cli cli(static_cast<int>(argv.size()), argv.data());
  CampaignSpec spec;
  try {
    spec = ftmesh::campaign::spec_from_cli(cli, base_config());
    if (const auto shard = cli.get("shard", ""); !shard.empty()) {
      (void)ftmesh::campaign::parse_shard(shard);
    }
    spec.validate();
  } catch (const CampaignSpecError&) {
    return "";
  } catch (const CampaignError&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("an untyped error: ") + e.what();
  }
  accepted = true;
  const std::size_t cells = spec.effective_algorithms().size() *
                            spec.effective_rates().size() *
                            spec.effective_fault_counts().size();
  if (ftmesh::campaign::enumerate_cells(spec).size() != cells) {
    return "the cell matrix does not match its dimensions";
  }
  return "";
}

TEST(CampaignFuzz, SeedsParseOrFailTyped) {
  int accepted_seeds = 0;
  for (const auto& line : seed_corpus()) {
    bool accepted = false;
    EXPECT_EQ(check(line, accepted), "") << line;
    accepted_seeds += accepted ? 1 : 0;
  }
  // The last two seeds are the trailing-garbage ctests' command lines.
  EXPECT_EQ(accepted_seeds, static_cast<int>(seed_corpus().size()) - 2);
}

TEST(CampaignFuzz, MutatedCommandLinesParseOrFailTyped) {
  const auto& corpus = seed_corpus();
  ftmesh::sim::Rng rng(20261021);
  constexpr int kCases = 20000;
  int accepted_cases = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string input = ftmesh::fuzz::mutate(
        corpus[static_cast<std::size_t>(i) % corpus.size()], corpus, rng,
        kCommandGrammar);
    bool accepted = false;
    ASSERT_EQ(check(input, accepted), "")
        << "case " << i << ", command line: " << input;
    accepted_cases += accepted ? 1 : 0;
  }
  // The mutations must leave some command lines valid, or the loop only
  // ever tests the error paths.
  EXPECT_GT(accepted_cases, kCases / 20);
}

TEST(CampaignFuzz, MatrixNumbersPastIntRangeAreRefusedNotWrapped) {
  // These used to be read as 64-bit numbers and truncated to int, so a
  // fault count of 2^32 ran as 0 and 2^32 + 3 patterns as 3.
  for (const char* const flag :
       {"--fault-counts", "--patterns", "--threads"}) {
    const char* argv[] = {"ftmesh", flag, "4294967296"};
    const ftmesh::report::Cli cli(3, argv);
    try {
      (void)ftmesh::campaign::spec_from_cli(cli, base_config());
      ADD_FAILURE() << flag << " 4294967296 was accepted";
    } catch (const CampaignSpecError& e) {
      EXPECT_EQ(e.code(), CampaignSpecError::Code::bad_value) << flag;
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
