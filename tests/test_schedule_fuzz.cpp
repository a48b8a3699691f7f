// Seeded mutation fuzz of the fault-schedule front end
// (inject::FaultSchedule::from_spec / validate_spec).
//
// The corpus is every `fault_schedule` line of examples/configs/*.cfg and
// tests/golden/tiled_transient.cfg, plus the schedules of the fault-smoke
// ctests (tools/CMakeLists.txt).  Each case applies one to four `;`-item
// mutations to a seed (mutation_fuzz.hpp) and holds the front end's
// contract on a 10x10 mesh: the spec either parses or throws
// FaultScheduleError, and validate_spec agrees with from_spec.  Nothing
// else may escape, crash or hang (ctest's TIMEOUT catches a hang; the
// sanitizer build runs this loop too).  A spec that parses must mean what
// it says: every event targets a node (and a link) on the mesh, at a
// finite, non-negative cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <exception>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "ftmesh/inject/fault_schedule.hpp"
#include "ftmesh/sim/rng.hpp"
#include "ftmesh/topology/mesh.hpp"
#include "mutation_fuzz.hpp"

namespace {

using ftmesh::inject::FaultEventKind;
using ftmesh::inject::FaultSchedule;
using ftmesh::inject::FaultScheduleError;
using ftmesh::topology::Mesh;

/// The value of every `fault_schedule = ...` line of a config text.
void schedules_of(const std::string& text, std::vector<std::string>& out) {
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) {
    const auto eq = line.find('=');
    if (line.rfind("fault_schedule", 0) == 0 && eq != std::string::npos) {
      out.push_back(line.substr(eq + 1));
    }
  }
}

std::vector<std::string> seed_corpus() {
  const std::filesystem::path root(FTMESH_SOURCE_DIR);
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(root / "examples" / "configs")) {
    if (entry.path().extension() == ".cfg") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  paths.push_back(root / "tests" / "golden" / "tiled_transient.cfg");
  std::vector<std::string> specs;
  for (const auto& path : paths) {
    schedules_of(ftmesh::fuzz::read_file(path.string()), specs);
  }
  // The node-fault and link-fault smoke schedules.
  specs.emplace_back("fail@600:4,4; fail@900:5,5; repair@1400:4,4");
  specs.emplace_back(
      "fail-link@600:4,4,E; fail@900:6,6; repair-link@1400:4,4,E; "
      "random-link:count=2,rate=0.002,start=800,repair_after=500");
  return specs;
}

/// Tokens of the schedule grammar.
const char* const kTokens[] = {
    "fail@",   "repair@",  "fail-link@", "repair-link@", "random:",
    "random-link:",        "count=",     "rate=",        "start=",
    "end=",    "repair_after=",          "E",            "W",
    "N",       "S",        "X+",         "Y-",           "@",
    ":",       ",",        ";",          "=",            " ",
    "\t",      "\r",       "\xff"};

const ftmesh::fuzz::Grammar kScheduleGrammar{';', ftmesh::fuzz::kNumbers,
                                              kTokens};

/// The contract for one spec; returns a description of a breach, or "".
/// `accepted` says whether the spec parsed.
std::string check(const std::string& spec, const Mesh& mesh, bool& accepted) {
  accepted = false;
  bool valid = false;
  try {
    FaultSchedule::validate_spec(spec, mesh);
    valid = true;
  } catch (const FaultScheduleError&) {
  } catch (const std::exception& e) {
    return std::string("validate_spec threw an untyped error: ") + e.what();
  }
  FaultSchedule sched;
  try {
    sched = FaultSchedule::from_spec(spec, mesh, ftmesh::sim::Rng(11));
  } catch (const FaultScheduleError&) {
    return valid ? "validate_spec accepts what from_spec refuses" : "";
  } catch (const std::exception& e) {
    return std::string("from_spec threw an untyped error: ") + e.what();
  }
  if (!valid) return "from_spec accepts what validate_spec refuses";
  accepted = true;
  if (!std::isfinite(sched.horizon()) || sched.horizon() < 0.0) {
    return "an event at cycle " + std::to_string(sched.horizon());
  }
  while (!sched.empty()) {
    const auto ev = sched.pop();
    if (!mesh.contains(ev.node)) return "an event off the mesh";
    const bool link = ev.kind == FaultEventKind::FailLink ||
                      ev.kind == FaultEventKind::RepairLink;
    if (link && !mesh.contains(ev.node.step(ev.dir))) {
      return "a link event off the mesh";
    }
  }
  return "";
}

TEST(ScheduleFuzz, SeedsParse) {
  const Mesh mesh(10, 10);
  const auto corpus = seed_corpus();
  ASSERT_GE(corpus.size(), 4u);
  for (const auto& spec : corpus) {
    bool accepted = false;
    EXPECT_EQ(check(spec, mesh, accepted), "") << spec;
    EXPECT_TRUE(accepted) << spec;
  }
}

TEST(ScheduleFuzz, MutatedSpecsParseOrFailTyped) {
  const Mesh mesh(10, 10);
  const auto corpus = seed_corpus();
  ASSERT_FALSE(corpus.empty());
  ftmesh::sim::Rng rng(20261020);
  constexpr int kCases = 20000;
  int parsed = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string input = ftmesh::fuzz::mutate(
        corpus[static_cast<std::size_t>(i) % corpus.size()], corpus, rng,
        kScheduleGrammar);
    bool accepted = false;
    ASSERT_EQ(check(input, mesh, accepted), "")
        << "case " << i << ", spec: " << input;
    parsed += accepted ? 1 : 0;
  }
  // The mutations must leave some specs valid, or the loop only ever tests
  // the error paths.
  EXPECT_GT(parsed, kCases / 20);
}

}  // namespace
