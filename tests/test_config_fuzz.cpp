// Seeded mutation fuzz of the config-file front end (core::load_config).
//
// The corpus is examples/configs/*.cfg.  Each case applies one to four
// line-wise mutations to a seed (mutation_fuzz.hpp) and holds the front
// end's contract: the text either loads, after which validate()
// passes or throws std::invalid_argument, or load_config throws
// std::invalid_argument or std::runtime_error.  Nothing else may escape,
// crash or hang (ctest's TIMEOUT catches a hang; the sanitizer build runs
// this loop too).  A config that loads and validates must also survive a
// save/load round trip unchanged, so an accepted input means what it says.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ftmesh/core/config.hpp"
#include "ftmesh/core/config_io.hpp"
#include "ftmesh/sim/rng.hpp"
#include "mutation_fuzz.hpp"

namespace {

using ftmesh::core::SimConfig;

std::vector<std::string> seed_corpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(FTMESH_SOURCE_DIR) / "examples" / "configs")) {
    if (entry.path().extension() == ".cfg") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const auto& path : paths) {
    texts.push_back(ftmesh::fuzz::read_file(path.string()));
  }
  return texts;
}

/// Tokens that mean something to one of the grammars in a config value.
const char* const kTokens[] = {
    "=",      ";",       ",",        "#",        "@",       ":",
    "fail@",  "repair@", "random:",  "random-link:",        "count=",
    "rate=",  "end=",    "E",        "X+",       "Duato",   "PHop",
    "tiles",  "seed",    "width",    "algorithm",           "fault_blocks",
    "  ",     "\t",      "\r",       "\x7f",     "\xff"};

const ftmesh::fuzz::Grammar kConfigGrammar{'\n', ftmesh::fuzz::kNumbers,
                                            kTokens};

/// The contract for one input; returns a description of a breach, or "".
/// `accepted` says whether the input loaded and validated.
std::string check(const std::string& text, bool& accepted) {
  accepted = false;
  SimConfig cfg;
  try {
    std::istringstream is(text);
    cfg = ftmesh::core::load_config(is);
  } catch (const std::invalid_argument&) {
    return "";
  } catch (const std::runtime_error&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("load_config threw an untyped error: ") + e.what();
  }
  try {
    cfg.validate();
  } catch (const std::invalid_argument&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("validate threw a non-invalid_argument: ") + e.what();
  }
  accepted = true;
  std::ostringstream saved;
  ftmesh::core::save_config(saved, cfg);
  std::istringstream again(saved.str());
  if (!(ftmesh::core::load_config(again) == cfg)) {
    return "a valid config does not survive save/load:\n" + saved.str();
  }
  return "";
}

TEST(ConfigFuzz, SeedsLoadAndValidate) {
  const auto corpus = seed_corpus();
  ASSERT_GE(corpus.size(), 4u);
  for (const auto& text : corpus) {
    std::istringstream is(text);
    EXPECT_NO_THROW(ftmesh::core::load_config(is).validate()) << text;
  }
}

TEST(ConfigFuzz, MutatedConfigsLoadOrFailTyped) {
  const auto corpus = seed_corpus();
  ASSERT_FALSE(corpus.empty());
  ftmesh::sim::Rng rng(20261019);
  constexpr int kCases = 20000;
  int loaded = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string input =
        ftmesh::fuzz::mutate(
            corpus[static_cast<std::size_t>(i) % corpus.size()], corpus, rng,
            kConfigGrammar);
    bool accepted = false;
    ASSERT_EQ(check(input, accepted), "") << "case " << i << ", input:\n"
                                          << input;
    loaded += accepted ? 1 : 0;
  }
  // The mutations must leave some inputs valid, or the loop only ever
  // tests the error paths.
  EXPECT_GT(loaded, kCases / 20);
}

}  // namespace
