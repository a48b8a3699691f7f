#pragma once
// Seeded text mutations shared by the front-end fuzz loops
// (test_config_fuzz, test_schedule_fuzz, test_campaign_fuzz,
// test_checkpoint_fuzz).
//
// A front end's text is a list of units joined by one separator: the lines
// of a config file, the `;` items of a fault schedule, the words of a
// command line, the lines of a checkpoint file or the fields of a record.  Each case applies one to four mutations to a seed — a
// byte flip, a unit dropped or duplicated, a unit spliced in from another
// seed, a number or a token replaced, a token inserted — drawn from a
// fixed-seed generator, so a failure names a case that replays.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ftmesh/sim/rng.hpp"

namespace ftmesh::fuzz {

/// What the mutations know of a front end's grammar.
struct Grammar {
  char separator = '\n';                    ///< joins the units
  std::span<const char* const> numbers;     ///< numbers spliced in
  std::span<const char* const> tokens;      ///< tokens spliced in
};

/// Numbers at and past the edges of the fields' types and bounds.
inline constexpr const char* kNumbers[] = {
    "0",          "1",          "-1",         "2",
    "3",          "64",         "65",         "65535",
    "65536",      "1024",       "1025",       "46341",
    "2147483647", "-2147483648", "2147483648", "4294967296",
    "18446744073709551615",     "18446744073709551616",
    "1e308",      "1e309",      "-1e-320",    "inf",
    "nan",        "0.5",        "-0",         "007",
    "0x10",       "1x",         "",           "+5"};

inline std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

inline std::vector<std::string> units_of(const std::string& text, char sep) {
  std::vector<std::string> units;
  std::istringstream is(text);
  for (std::string unit; std::getline(is, unit, sep);) units.push_back(unit);
  return units;
}

inline std::string join(const std::vector<std::string>& units, char sep) {
  std::string out;
  for (const auto& unit : units) out += unit + sep;
  return out;
}

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

inline bool is_number_char(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' ||
         c == 'e';
}

inline bool is_token_char(char c) {
  return c != ' ' && c != '\t' && c != '\n';
}

inline std::string mutate(std::string text,
                          const std::vector<std::string>& corpus,
                          sim::Rng& rng, const Grammar& g) {
  const auto mutations = 1 + rng.next_below(4);
  for (std::uint64_t m = 0; m < mutations; ++m) {
    auto units = units_of(text, g.separator);
    switch (rng.next_below(7)) {
      case 0:  // flip one bit of one byte
        if (!text.empty()) {
          text[rng.next_below(text.size())] ^=
              static_cast<char>(1u << rng.next_below(8));
        }
        break;
      case 1:  // drop a unit
        if (!units.empty()) {
          units.erase(units.begin() + static_cast<std::ptrdiff_t>(
                                          rng.next_below(units.size())));
          text = join(units, g.separator);
        }
        break;
      case 2:  // duplicate a unit somewhere else
        if (!units.empty()) {
          const auto unit = units[rng.next_below(units.size())];
          units.insert(units.begin() + static_cast<std::ptrdiff_t>(
                                           rng.next_below(units.size() + 1)),
                       unit);
          text = join(units, g.separator);
        }
        break;
      case 3: {  // splice in a unit of another seed
        const auto donor =
            units_of(corpus[rng.next_below(corpus.size())], g.separator);
        if (!donor.empty()) {
          units.insert(units.begin() + static_cast<std::ptrdiff_t>(
                                           rng.next_below(units.size() + 1)),
                       donor[rng.next_below(donor.size())]);
          text = join(units, g.separator);
        }
        break;
      }
      case 4:  // replace a number
        replace_run(text, rng(), is_number_char,
                    g.numbers[rng.next_below(g.numbers.size())]);
        break;
      case 5:  // replace a whole token
        replace_run(text, rng(), is_token_char,
                    g.tokens[rng.next_below(g.tokens.size())]);
        break;
      default:  // insert a token at a random position
        text.insert(rng.next_below(text.size() + 1),
                    g.tokens[rng.next_below(g.tokens.size())]);
        break;
    }
  }
  return text;
}

}  // namespace ftmesh::fuzz
