// Seeded mutation fuzz of the config-file front end (core::load_config).
//
// The corpus is examples/configs/*.cfg.  Each case applies one to four
// mutations to a seed — a byte flip, a line dropped or duplicated, a line
// spliced in from another seed, a number or a token replaced — and holds
// the front end's contract: the text either loads, after which validate()
// passes or throws std::invalid_argument, or load_config throws
// std::invalid_argument or std::runtime_error.  Nothing else may escape,
// crash or hang (ctest's TIMEOUT catches a hang; the sanitizer build runs
// this loop too).  A config that loads and validates must also survive a
// save/load round trip unchanged, so an accepted input means what it says.
//
// The generator is fixed-seed, so a failure names a case that replays.

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
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    texts.push_back(os.str());
  }
  return texts;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

/// Numbers at and past the edges of the fields' types and bounds.
const char* const kNumbers[] = {
    "0",          "1",          "-1",         "2",
    "3",          "64",         "65",         "65535",
    "65536",      "1024",       "1025",       "46341",
    "2147483647", "-2147483648", "2147483648", "4294967296",
    "18446744073709551615",     "18446744073709551616",
    "1e308",      "1e309",      "-1e-320",    "inf",
    "nan",        "0.5",        "-0",         "007",
    "0x10",       "1x",         "",           "+5"};

/// Tokens that mean something to one of the grammars in a config value.
const char* const kTokens[] = {
    "=",      ";",       ",",        "#",        "@",       ":",
    "fail@",  "repair@", "random:",  "random-link:",        "count=",
    "rate=",  "end=",    "E",        "X+",       "Duato",   "PHop",
    "tiles",  "seed",    "width",    "algorithm",           "fault_blocks",
    "  ",     "\t",      "\r",       "\x7f",     "\xff"};

/// Replaces the `pick`-th run of characters matching `in_run` in `text`.
template <typename Pred>
bool replace_run(std::string& text, std::uint64_t pick, Pred in_run,
                 const std::string& with) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  for (std::size_t i = 0; i < text.size();) {
    if (!in_run(text[i])) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < text.size() && in_run(text[i])) ++i;
    runs.emplace_back(start, i - start);
  }
  if (runs.empty()) return false;
  const auto [start, length] = runs[pick % runs.size()];
  text.replace(start, length, with);
  return true;
}

bool is_number_char(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' ||
         c == 'e';
}

bool is_token_char(char c) {
  return c != ' ' && c != '\t' && c != '\n';
}

std::string mutate(std::string text, const std::vector<std::string>& corpus,
                   ftmesh::sim::Rng& rng) {
  const auto mutations = 1 + rng.next_below(4);
  for (std::uint64_t m = 0; m < mutations; ++m) {
    auto lines = lines_of(text);
    switch (rng.next_below(7)) {
      case 0:  // flip one bit of one byte
        if (!text.empty()) {
          text[rng.next_below(text.size())] ^=
              static_cast<char>(1u << rng.next_below(8));
        }
        break;
      case 1:  // drop a line
        if (!lines.empty()) {
          lines.erase(lines.begin() +
                      static_cast<std::ptrdiff_t>(rng.next_below(lines.size())));
          text = join(lines);
        }
        break;
      case 2:  // duplicate a line somewhere else
        if (!lines.empty()) {
          const auto line = lines[rng.next_below(lines.size())];
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                           rng.next_below(lines.size() + 1)),
                       line);
          text = join(lines);
        }
        break;
      case 3: {  // splice in a line of another seed
        const auto donor = lines_of(corpus[rng.next_below(corpus.size())]);
        if (!donor.empty()) {
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                           rng.next_below(lines.size() + 1)),
                       donor[rng.next_below(donor.size())]);
          text = join(lines);
        }
        break;
      }
      case 4:  // replace a number
        replace_run(text, rng(), is_number_char,
                    kNumbers[rng.next_below(std::size(kNumbers))]);
        break;
      case 5:  // replace a whole token
        replace_run(text, rng(), is_token_char,
                    kTokens[rng.next_below(std::size(kTokens))]);
        break;
      default:  // insert a token at a random position
        text.insert(rng.next_below(text.size() + 1),
                    kTokens[rng.next_below(std::size(kTokens))]);
        break;
    }
  }
  return text;
}

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
        mutate(corpus[static_cast<std::size_t>(i) % corpus.size()], corpus, rng);
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
