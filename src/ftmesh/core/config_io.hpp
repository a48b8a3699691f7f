#pragma once
// SimConfig (de)serialisation as `key = value` text, so experiment
// configurations can be checked into a repo and replayed exactly.
//
//   # comment
//   width = 10
//   algorithm = Duato-Nbc
//   injection_rate = -1
//   fault_blocks = 4,3,5,5; 1,7,1,7
//
// Unknown keys are an error (catching typos beats ignoring them).

#include <charconv>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "ftmesh/core/config.hpp"

namespace ftmesh::core {

/// Parses the whole of `value` as a T — the number grammar of config files
/// and of the CLI flags that set SimConfig fields.  std::stoi and friends
/// stop at the first non-digit ("12abc" reads as 12) and the unsigned ones
/// wrap a leading '-' ("-1" reads as 4294967295); from_chars rejects both,
/// and rejects any sign on an unsigned T.  A bool reads as an integer,
/// nonzero = true.  `base` applies to integral T (no "0x" prefix).
template <typename T>
T parse_number(const std::string& value, int base = 10) {
  if constexpr (std::is_same_v<T, bool>) {
    return parse_number<int>(value, base) != 0;
  } else {
    T out{};
    const char* const end = value.data() + value.size();
    const auto [ptr, ec] = [&] {
      if constexpr (std::is_integral_v<T>) {
        return std::from_chars(value.data(), end, out, base);
      } else {
        return std::from_chars(value.data(), end, out);
      }
    }();
    if (ec == std::errc::result_out_of_range) {
      throw std::out_of_range("'" + value + "' is out of range");
    }
    if (ec == std::errc{} && ptr == end) return out;
    if constexpr (std::is_unsigned_v<T>) {
      throw std::invalid_argument("expected a non-negative integer, got '" +
                                  value + "'");
    } else if constexpr (std::is_integral_v<T>) {
      throw std::invalid_argument("expected an integer, got '" + value + "'");
    } else {
      throw std::invalid_argument("expected a number, got '" + value + "'");
    }
  }
}

/// Writes every field of `cfg` (including defaults) as key = value lines.
/// Every value parses back to the same field: load_config(save_config(c))
/// simulates exactly what `c` does.
void save_config(std::ostream& os, const SimConfig& cfg);
void save_config_file(const std::string& path, const SimConfig& cfg);

/// Parses `key = value` lines over a default-constructed SimConfig.
/// Throws std::invalid_argument with a line number on malformed input.
SimConfig load_config(std::istream& is);
SimConfig load_config_file(const std::string& path);

}  // namespace ftmesh::core
