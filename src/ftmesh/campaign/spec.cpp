#include "ftmesh/campaign/spec.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <utility>

#include "ftmesh/campaign/error.hpp"
#include "ftmesh/core/config_io.hpp"
#include "ftmesh/routing/registry.hpp"
#include "ftmesh/sim/rng.hpp"

namespace ftmesh::campaign {

namespace {

std::uint64_t fnv1a(const char* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// One number of matrix flag `flag`, parsed as a whole token of type T.
template <typename T>
T flag_number(const std::string& flag, const std::string& text) {
  try {
    return core::parse_number<T>(text);
  } catch (const std::exception& e) {
    throw CampaignSpecError(CampaignSpecError::Code::bad_value,
                            "bad value for --" + flag + ": " + e.what());
  }
}

/// --flag's value; a flag given without one is refused.
std::string flag_text(const report::Cli& cli, const std::string& flag) {
  std::string text = cli.get(flag, "");
  if (cli.flag(flag) && text.empty()) {
    throw CampaignSpecError(CampaignSpecError::Code::bad_value,
                            "missing value for --" + flag);
  }
  return text;
}

std::vector<std::string> comma_items(const std::string& text) {
  std::vector<std::string> items;
  std::istringstream is(text);
  for (std::string item; std::getline(is, item, ',');) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

template <typename T>
std::vector<T> flag_numbers(const report::Cli& cli, const std::string& flag) {
  std::vector<T> out;
  for (const auto& item : comma_items(flag_text(cli, flag))) {
    out.push_back(flag_number<T>(flag, item));
  }
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

}  // namespace

void CampaignSpec::validate() const {
  try {
    base.validate();
  } catch (const std::invalid_argument& e) {
    throw CampaignSpecError(CampaignSpecError::Code::base_config, e.what());
  }
  std::set<std::string> seen;
  for (const auto& name : algorithms) {
    if (!routing::is_algorithm_name(name)) {
      throw CampaignSpecError(CampaignSpecError::Code::unknown_algorithm,
                              "unknown algorithm " + name);
    }
    if (!seen.insert(name).second) {
      throw CampaignSpecError(CampaignSpecError::Code::duplicate_algorithm,
                              "algorithm listed twice: " + name +
                                  " (duplicate cells would collide in the "
                                  "cell address space)");
    }
  }
  for (const double r : rates) {
    if (!std::isfinite(r) || r < 0.0 ||
        r > static_cast<double>(base.injection_vcs)) {
      std::ostringstream os;
      os << "invalid injection rate " << r
         << " (campaign rates must be finite, >= 0 and <= injection_vcs = "
         << base.injection_vcs
         << "; use `ftmesh run --rate -1` for a one-off saturated-source "
            "run)";
      throw CampaignSpecError(CampaignSpecError::Code::invalid_rate, os.str());
    }
  }
  if (patterns < 1) {
    throw CampaignSpecError(CampaignSpecError::Code::invalid_patterns,
                            "patterns must be >= 1, got " +
                                std::to_string(patterns));
  }
  const int capacity = base.width * base.height;
  for (const int f : fault_counts) {
    if (f < 0 || f >= capacity) {
      throw CampaignSpecError(
          CampaignSpecError::Code::fault_count_out_of_range,
          "fault count " + std::to_string(f) + " out of range for a " +
              std::to_string(base.width) + "x" + std::to_string(base.height) +
              " mesh (need 0 <= f < " + std::to_string(capacity) + ")");
    }
  }
}

CampaignSpec spec_from_cli(const report::Cli& cli, core::SimConfig base) {
  CampaignSpec spec;
  spec.base = std::move(base);
  spec.algorithms = comma_items(cli.get("algorithms", ""));
  spec.rates = flag_numbers<double>(cli, "rates");
  spec.fault_counts = flag_numbers<int>(cli, "fault-counts");
  if (const auto text = flag_text(cli, "patterns"); !text.empty()) {
    spec.patterns = flag_number<int>("patterns", text);
  }
  if (const auto text = flag_text(cli, "threads"); !text.empty()) {
    spec.threads = flag_number<int>("threads", text);
  }
  return spec;
}

std::vector<std::string> CampaignSpec::effective_algorithms() const {
  return algorithms.empty() ? std::vector<std::string>{base.algorithm}
                            : algorithms;
}

std::vector<double> CampaignSpec::effective_rates() const {
  return rates.empty() ? std::vector<double>{base.injection_rate} : rates;
}

std::vector<int> CampaignSpec::effective_fault_counts() const {
  return fault_counts.empty() ? std::vector<int>{base.fault_count}
                              : fault_counts;
}

std::vector<CellPlan> enumerate_cells(const CampaignSpec& spec) {
  std::vector<CellPlan> cells;
  std::size_t index = 0;
  for (const auto& algorithm : spec.effective_algorithms()) {
    for (const double rate : spec.effective_rates()) {
      for (const int fault_count : spec.effective_fault_counts()) {
        CellPlan plan;
        plan.index = index++;
        plan.id = cell_id(spec.base.seed, algorithm, rate, fault_count);
        plan.algorithm = algorithm;
        plan.rate = rate;
        plan.fault_count = fault_count;
        plan.patterns = fault_count == 0 ? 1 : spec.patterns;
        cells.push_back(std::move(plan));
      }
    }
  }
  return cells;
}

std::uint64_t cell_id(std::uint64_t base_seed, const std::string& algorithm,
                      double rate, int fault_count) {
  const std::uint64_t name_hash = fnv1a(algorithm.data(), algorithm.size());
  return sim::counter_hash(
      sim::counter_hash(base_seed, name_hash, double_bits(rate)),
      static_cast<std::uint64_t>(fault_count), 0xCE11ULL);
}

std::string serialize_spec(const CampaignSpec& spec) {
  std::ostringstream os;
  os << "# ftmesh campaign spec v1\n";
  core::save_config(os, spec.base);
  // The exact bit pattern of the base rate.  The config text above
  // round-trips it too, but it once printed six significant digits only;
  // the line stays so existing spec hashes do not move.
  os << "base_injection_rate_bits = " << hex64(double_bits(spec.base.injection_rate))
     << "\n";
  os << "algorithms =";
  for (const auto& a : spec.algorithms) os << " " << a;
  os << "\nrate_bits =";
  for (const double r : spec.rates) os << " " << hex64(double_bits(r));
  os << "\nfault_counts =";
  for (const int f : spec.fault_counts) os << " " << f;
  os << "\npatterns = " << spec.patterns << "\n";
  // threads intentionally omitted: worker count is not part of the
  // experiment's identity.
  return os.str();
}

std::uint64_t spec_hash(const CampaignSpec& spec) {
  const std::string text = serialize_spec(spec);
  return sim::counter_hash(fnv1a(text.data(), text.size()), text.size(), 0);
}

Shard parse_shard(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    throw CampaignError("bad shard spec '" + text + "' (expected i/N)");
  }
  Shard shard;
  try {
    shard.index = core::parse_number<int>(text.substr(0, slash));
    shard.count = core::parse_number<int>(text.substr(slash + 1));
  } catch (const std::exception&) {
    throw CampaignError("bad shard spec '" + text + "' (expected i/N)");
  }
  if (shard.count < 1 || shard.index < 0 || shard.index >= shard.count) {
    throw CampaignError("bad shard spec '" + text +
                        "' (need 0 <= i < N, N >= 1)");
  }
  return shard;
}

}  // namespace ftmesh::campaign
