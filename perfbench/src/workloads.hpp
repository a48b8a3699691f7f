#pragma once
// The benchmark's workloads and the two passes that measure them.
//
// Untraced pass (--trace 0): the program as a user runs it
// (core::Simulator, campaign::run_streamed), timed in host time around the
// public calls only.  Traced pass (--trace 1): the same workload through
// the traced pipeline (pipeline.hpp) with a span around every layer call,
// next to an untraced reference run that it must reproduce exactly.
//
// Both passes repeat the workload until `seconds` have elapsed and return
// one sample per repetition for every metric; run.py reduces the samples
// to medians.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< span dumps go here (traced pass)
};

struct Outcome {
  std::map<std::string, std::vector<double>> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the report

  void add(const std::string& name, double value) { metrics[name].push_back(value); }
  void fail(const std::string& why, std::uint64_t count = 1);
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown workload.
Outcome run_workload(const Options& options);

}  // namespace perfbench
