// Pinned golden fingerprints.
//
// test_golden_determinism compares kernel settings with each other; a
// change that moves every setting the same way passes it.  This test pins absolute
// results instead: for every corpus case, a 64-bit FNV-1a hash of
//   - the JSON report plus a hexfloat dump of the SimResult fields the JSON
//     omits (adaptivity, traffic split), and
//   - the JSONL trace of the same configuration,
// checked against tests/golden/fingerprints.txt.  The sharded kernel
// (four tiles on two threads) must reproduce each pinned trace hash too.
//
// The corpus is every algorithm on the four golden scenarios (8x8 base
// configuration), Duato on the dynamic schedule at 8 and 32 VCs (the
// other input-VC ready-mask widths: one and three words, against the
// default 24 VCs' two), plus examples/configs/paper_headline.cfg, all with
// kernel stats, VC usage, the traffic map and a 200-cycle metrics series
// switched on, so every reported counter is covered.
//
// On a mismatch the failure message carries the full replacement line.  A
// deliberate change of results is a paste of those lines into the file,
// named with its reason in the change log; there is no regeneration switch.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "ftmesh/core/config_io.hpp"
#include "ftmesh/routing/registry.hpp"
#include "golden_corpus.hpp"

namespace {

using ftmesh::core::SimConfig;

const std::string kSourceDir = FTMESH_SOURCE_DIR;
const std::string kFingerprintFile =
    kSourceDir + "/tests/golden/fingerprints.txt";

/// A streambuf that folds every byte written to it into a 64-bit FNV-1a
/// hash, so multi-megabyte traces are fingerprinted without being stored.
class Fnv1aBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      add(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) add(s[i]);
    return n;
  }

 private:
  void add(char c) noexcept {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t report_fingerprint(const SimConfig& cfg) {
  Fnv1aBuf buf;
  std::ostream os(&buf);
  const auto r = ftmesh::golden::write_report(os, cfg);
  const auto& a = r.adaptivity;
  const auto& t = r.traffic_split;
  os << std::hexfloat << "adaptivity " << a.decisions << ' ' << a.mean_offered
     << ' ' << a.mean_free << "\ntraffic_split " << t.fring_nodes << ' '
     << t.other_nodes << ' ' << t.fring_mean_percent << ' '
     << t.other_mean_percent << ' ' << t.fring_peak_percent << ' '
     << t.other_peak_percent << '\n';
  os.flush();
  return buf.value();
}

std::uint64_t trace_fingerprint(const SimConfig& cfg) {
  Fnv1aBuf buf;
  std::ostream os(&buf);
  ftmesh::golden::write_trace(os, cfg);
  os.flush();
  return buf.value();
}

struct Case {
  std::string name;
  SimConfig cfg;
};

std::vector<Case> corpus() {
  std::vector<Case> cases;
  for (const auto& algo : ftmesh::routing::algorithm_names()) {
    for (const auto& sc : ftmesh::golden::kScenarios) {
      auto cfg = ftmesh::golden::base_config(algo);
      sc.apply(cfg);
      cases.push_back({algo + "/" + sc.name, cfg});
    }
  }
  for (const int vcs : {8, 32}) {
    auto cfg = ftmesh::golden::base_config("Duato");
    cfg.total_vcs = vcs;
    ftmesh::golden::kScenarios[2].apply(cfg);  // dynamic-schedule
    cases.push_back({"Duato/dynamic-schedule/vcs" + std::to_string(vcs), cfg});
  }
  cases.push_back(
      {"paper_headline.cfg", ftmesh::core::load_config_file(
                                 kSourceDir +
                                 "/examples/configs/paper_headline.cfg")});
  for (auto& c : cases) {
    c.cfg.collect_kernel_stats = true;
    c.cfg.collect_vc_usage = true;
    c.cfg.collect_traffic_map = true;
    c.cfg.metrics_interval = 200;
  }
  return cases;
}

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = corpus();
  return kCases;
}

/// name -> "report trace", from the pinned file ('#' lines are comments).
std::map<std::string, std::string> pinned() {
  std::map<std::string, std::string> out;
  std::ifstream in(kFingerprintFile);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, report, trace;
    ls >> name >> report >> trace;
    out[name] = report + " " + trace;
  }
  return out;
}

class GoldenFingerprints : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenFingerprints, MatchPinnedHashes) {
  const Case& c = cases()[GetParam()];
  const std::string got =
      hex(report_fingerprint(c.cfg)) + " " + hex(trace_fingerprint(c.cfg));
  const auto table = pinned();
  const auto it = table.find(c.name);
  const std::string want = it == table.end() ? "<missing>" : it->second;
  EXPECT_EQ(want, got) << "results moved for " << c.name
                       << "; if deliberate, the replacement line for "
                       << kFingerprintFile << " is:\n"
                       << c.name << " " << got;
}

TEST_P(GoldenFingerprints, ShardedTraceMatchesPinnedHash) {
  // The sharded kernel — four tiles stepped on two threads — must emit the pinned trace on every case,
  // the 8- and 32-VC ready-mask widths and the 10x10 headline included.
  // Only the trace: each tile keeps its own route-candidate cache, so the
  // report's kernel cache counters depend on the tiling by design.
  Case c = cases()[GetParam()];
  c.cfg.tiles = 4;
  c.cfg.step_threads = 2;
  const auto table = pinned();
  const auto it = table.find(c.name);
  ASSERT_NE(it, table.end()) << c.name << " has no pinned line";
  const std::string want = it->second.substr(it->second.find(' ') + 1);
  EXPECT_EQ(want, hex(trace_fingerprint(c.cfg)))
      << "the sharded trace moved for " << c.name;
}

TEST(GoldenFingerprintFile, ListsExactlyTheCorpus) {
  std::set<std::string> want;
  for (const auto& c : cases()) want.insert(c.name);
  std::set<std::string> have;
  for (const auto& [name, hashes] : pinned()) have.insert(name);
  EXPECT_EQ(want, have) << kFingerprintFile
                        << " must hold one line per corpus case";
}

std::string case_name(const ::testing::TestParamInfo<std::size_t>& info) {
  std::string s = cases()[info.param].name;
  for (char& ch : s) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenFingerprints,
                         ::testing::Range<std::size_t>(0, cases().size()),
                         case_name);

}  // namespace
