#include "ftmesh/report/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "ftmesh/core/config_io.hpp"

namespace ftmesh::report {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    Entry e;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      e.key = arg.substr(2, eq - 2);
      e.value = arg.substr(eq + 1);
      e.has_value = true;
    } else {
      e.key = arg.substr(2);
      // A following token that is not itself an option becomes the value.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        e.value = argv[++i];
        e.has_value = true;
      }
    }
    entries_.push_back(std::move(e));
  }
}

bool Cli::flag(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.key == name) return true;
  }
  return false;
}

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  for (const auto& e : entries_) {
    if (e.key == name && e.has_value) return e.value;
  }
  return fallback;
}

namespace {

template <typename T>
T parse_flag(const std::string& name, const std::string& text) {
  try {
    return core::parse_number<T>(text);
  } catch (const std::exception& e) {
    throw std::invalid_argument("bad value for --" + name + ": " + e.what());
  }
}

template <typename T>
std::vector<T> parse_flag_list(const std::string& name, const std::string& text) {
  std::vector<T> out;
  std::istringstream is(text);
  for (std::string item; std::getline(is, item, ',');) {
    if (!item.empty()) out.push_back(parse_flag<T>(name, item));
  }
  return out;
}

/// The text a numeric getter parses: `fallback` when --name is absent; a
/// flag given without a value throws.
std::string number_text(const Cli& cli, const std::string& name,
                        const std::string& fallback) {
  if (!cli.flag(name)) return fallback;
  auto v = cli.get(name, "");
  if (v.empty()) throw std::invalid_argument("missing value for --" + name);
  return v;
}

}  // namespace

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const auto v = number_text(*this, name, "");
  if (v.empty()) return fallback;
  return parse_flag<std::int64_t>(name, v);
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto v = number_text(*this, name, "");
  if (v.empty()) return fallback;
  return parse_flag<double>(name, v);
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& name,
                                            const std::string& fallback) const {
  return parse_flag_list<std::int64_t>(name,
                                       number_text(*this, name, fallback));
}

std::vector<double> Cli::get_double_list(const std::string& name) const {
  return parse_flag_list<double>(name, number_text(*this, name, ""));
}

void Cli::reject_unknown(const std::vector<std::string>& known) const {
  for (const auto& e : entries_) {
    if (std::find(known.begin(), known.end(), e.key) == known.end()) {
      throw std::invalid_argument("unknown flag --" + e.key);
    }
  }
}

bool Cli::full_scale() const {
  if (flag("full")) return true;
  const char* env = std::getenv("FTMESH_FULL");
  return env != nullptr && std::string(env) == "1";
}

}  // namespace ftmesh::report
