// ftmesh_perfbench: runs one benchmark workload for a time budget and
// prints one JSON object of raw per-repetition samples on stdout.
//
//   ftmesh_perfbench --workload paper-headline --seed 1 --seconds 10
//                    --trace 0 --out DIR
//
// perfbench/run.py builds this program, reduces the samples to medians and
// prints the benchmark's result line.  Exit code 0 means the workload ran;
// failed output checks are counted in "failed", not signalled by the exit
// code.

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + '"';
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void usage() {
  std::cerr << "usage: ftmesh_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\nworkloads:";
  for (const auto& name : perfbench::workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") o.workload = value;
      else if (flag == "--seed") o.seed = std::stoull(value);
      else if (flag == "--seconds") o.seconds = std::stod(value);
      else if (flag == "--trace") o.trace = std::stoi(value) != 0;
      else if (flag == "--out") o.out_dir = value;
      else throw std::invalid_argument("unknown flag " + flag);
    }
    if (o.workload.empty() || o.out_dir.empty()) throw std::invalid_argument("missing flags");
  } catch (const std::exception& e) {
    std::cerr << "ftmesh_perfbench: " << e.what() << '\n';
    usage();
    return 2;
  }

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::cerr << "ftmesh_perfbench: " << e.what() << '\n';
    return 1;
  }

#ifdef NDEBUG
  const bool assertions = false;
#else
  const bool assertions = true;
#endif
  std::cout << "{\"workload\":" << json_string(o.workload) << ",\"seed\":" << o.seed
            << ",\"trace\":" << (o.trace ? 1 : 0)
            << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
            << ",\"assertions\":" << (assertions ? "true" : "false")
            << ",\"compiler\":" << json_string(__VERSION__)
            << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
            << ",\"failures\":[";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    std::cout << (i ? "," : "") << json_string(out.failures[i]);
  }
  std::cout << "],\"samples\":{";
  bool first = true;
  for (const auto& [name, values] : out.metrics) {
    std::cout << (first ? "" : ",") << json_string(name) << ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::cout << (i ? "," : "") << json_number(values[i]);
    }
    std::cout << ']';
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
