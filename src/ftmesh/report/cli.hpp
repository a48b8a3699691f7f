#pragma once
// Tiny command-line option parser shared by the bench binaries and
// examples.  Supports `--flag`, `--key value` and `--key=value`; every
// bench also honours FTMESH_FULL=1 as an alias of --full (paper-scale
// runs).

#include <cstdint>
#include <string>
#include <vector>

namespace ftmesh::report {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True when `--name` was passed.
  [[nodiscard]] bool flag(const std::string& name) const;

  /// --name's value; `fallback` when absent or given without a value
  /// (bare switches such as --resume read as the empty string).
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;

  /// Numbers parse as one whole token (core::parse_number): "2x" and "1e"
  /// throw std::invalid_argument("bad value for --name: ...").  A numeric
  /// flag given without a value throws ("missing value for --name").
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;

  /// --name as a comma list of numbers, each item parsed like get_int /
  /// get_double; empty items are skipped.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::string& fallback = "") const;
  [[nodiscard]] std::vector<double> get_double_list(const std::string& name) const;

  /// Throws std::invalid_argument("unknown flag --x") for the first --x not
  /// in `known`.
  void reject_unknown(const std::vector<std::string>& known) const;

  /// --full flag or FTMESH_FULL=1: run the paper-scale configuration.
  [[nodiscard]] bool full_scale() const;

  /// Unrecognised positional arguments (no leading --).
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  struct Entry {
    std::string key;
    std::string value;
    bool has_value = false;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> positional_;
};

}  // namespace ftmesh::report
