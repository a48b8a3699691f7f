// Tests for the static routing-function audit (verify/audit.hpp) and the
// per-cycle runtime invariant auditor (Network::audit_invariants).

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ftmesh/fault/fault_model.hpp"
#include "ftmesh/fault/fring.hpp"
#include "ftmesh/inject/fault_injector.hpp"
#include "ftmesh/router/network.hpp"
#include "ftmesh/routing/registry.hpp"
#include "ftmesh/verify/audit.hpp"
#include "ftmesh/verify/broken_demo.hpp"
#include "routing_fixtures.hpp"

namespace {

using ftmesh::fault::FaultMap;
using ftmesh::fault::FRingSet;
using ftmesh::fault::Rect;
using ftmesh::inject::FaultEvent;
using ftmesh::inject::FaultEventKind;
using ftmesh::inject::FaultInjector;
using ftmesh::inject::FaultSchedule;
using ftmesh::router::IvcStage;
using ftmesh::router::Network;
using ftmesh::router::NetworkConfig;
using ftmesh::sim::Rng;
using ftmesh::topology::Coord;
using ftmesh::topology::Direction;
using ftmesh::topology::Mesh;
using ftmesh::verify::AuditCheck;
using ftmesh::verify::AuditOptions;
using ftmesh::verify::AuditReport;
using ftmesh::testing::make_faults;
using ftmesh::verify::audit_algorithm;

AuditReport audit(const std::string& name, const Mesh& mesh,
                  const FaultMap& faults) {
  const FRingSet rings(faults);
  const auto algo =
      ftmesh::routing::make_algorithm(name, mesh, faults, rings);
  AuditOptions opts;
  opts.threads = 1;
  return audit_algorithm(*algo, mesh, faults, rings, opts);
}

// ---- every registered algorithm audits clean --------------------------

class AuditAllAlgorithms : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    Registry, AuditAllAlgorithms,
    ::testing::ValuesIn(ftmesh::routing::algorithm_names()),
    [](const auto& suite_info) {
      std::string n = suite_info.param;
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST_P(AuditAllAlgorithms, CleanMeshHasNoViolations) {
  const Mesh mesh(6, 6);
  const FaultMap faults(mesh);
  const auto report = audit(GetParam(), mesh, faults);
  EXPECT_TRUE(report.ok()) << report.violation_count << " violations, e.g. "
                           << (report.violations.empty()
                                   ? std::string("none")
                                   : report.violations.front().detail);
  EXPECT_GT(report.states_explored, 0u);
  EXPECT_GT(report.candidates_checked, 0u);
}

TEST_P(AuditAllAlgorithms, BlockFaultPatternHasNoViolations) {
  const Mesh mesh(7, 7);
  const auto faults = FaultMap::from_blocks(mesh, {Rect{2, 2, 3, 3}});
  const auto report = audit(GetParam(), mesh, faults);
  EXPECT_TRUE(report.ok()) << report.violation_count << " violations, e.g. "
                           << (report.violations.empty()
                                   ? std::string("none")
                                   : report.violations.front().detail);
}

TEST_P(AuditAllAlgorithms, RandomFaultPatternsHaveNoViolations) {
  const Mesh mesh(6, 6);
  for (const std::uint64_t seed : {2u, 3u}) {
    const auto faults = make_faults(mesh, 3, seed);
    const auto report = audit(GetParam(), mesh, faults);
    EXPECT_TRUE(report.ok())
        << "seed " << seed << ": " << report.violation_count
        << " violations, e.g. "
        << (report.violations.empty() ? std::string("none")
                                      : report.violations.front().detail);
  }
}

// ---- route-class: the contract of the site-keyed route cache ----------

/// The audit's fault-pattern classes (as `ftmesh audit` builds them) on a
/// 6x6 mesh: clean, center, boundary, link and random.
std::vector<std::pair<std::string, FaultMap>> pattern_classes(
    const Mesh& mesh) {
  std::vector<std::pair<std::string, FaultMap>> out;
  out.emplace_back("clean", FaultMap(mesh));
  out.emplace_back("center", FaultMap::from_blocks(mesh, {Rect{2, 2, 3, 3}}));
  out.emplace_back("boundary",
                   FaultMap::from_blocks(mesh, {Rect{0, 2, 0, 3}}));
  out.emplace_back(
      "link", FaultMap::from_state(mesh, {}, {{{2, 3}, Direction::XPlus}}));
  for (const std::uint64_t seed : {2u, 3u, 4u}) {
    out.emplace_back("random-" + std::to_string(seed),
                     make_faults(mesh, 4, seed));
  }
  return out;
}

TEST_P(AuditAllAlgorithms, RouteClassHoldsUnderEveryPatternClass) {
  const Mesh mesh(6, 6);
  for (const auto& [label, faults] : pattern_classes(mesh)) {
    const auto report = audit(GetParam(), mesh, faults);
    EXPECT_GT(report.site_states, 0u) << label;
    for (const auto& v : report.violations) {
      EXPECT_NE(v.check, AuditCheck::RouteClass)
          << label << ": at (" << v.at.x << "," << v.at.y << ") -> (" << v.dst.x
          << "," << v.dst.y << "): " << v.detail;
    }
    EXPECT_TRUE(report.ok()) << label << ": " << report.violation_count
                             << " violations";
  }
}

/// Minimal adaptive routing on one VC that splits its two minimal
/// directions into separate tiers only when the destination is more than
/// two hops away — a read of manhattan(at, dst) that its route site cannot
/// see, while it keeps the default uniform_at claim.
class DistanceReadingRouting : public ftmesh::routing::RoutingAlgorithm {
 public:
  DistanceReadingRouting(const Mesh& mesh, const FaultMap& faults)
      : RoutingAlgorithm(mesh, faults),
        layout_(ftmesh::routing::VcLayout::adaptive(1, /*ring=*/false,
                                                    /*xy=*/false)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "Distance-Reading";
  }
  [[nodiscard]] const ftmesh::routing::VcLayout& layout()
      const noexcept override {
    return layout_;
  }
  void candidates(Coord at, const ftmesh::router::HeaderState& msg,
                  ftmesh::routing::CandidateList& out) const override {
    std::array<Direction, 2> dirs{};
    const int n = usable_minimal(at, msg.dst, dirs);
    const bool far = ftmesh::topology::manhattan(at, msg.dst) > 2;
    for (int d = 0; d < n; ++d) {
      if (d == 1 && far) out.next_tier();
      out.add(dirs[static_cast<std::size_t>(d)], 0);
    }
  }
  [[nodiscard]] ftmesh::routing::DeadlockArgument deadlock_argument()
      const noexcept override {
    return ftmesh::routing::DeadlockArgument::FullCdg;
  }
  [[nodiscard]] std::uint64_t route_state_key(
      const ftmesh::router::HeaderState&) const noexcept override {
    return 0;
  }

 private:
  ftmesh::routing::VcLayout layout_;
};

TEST(Audit, DistanceReadAtAUniformNodeIsFlaggedAsRouteClass) {
  const Mesh mesh(6, 6);
  const FaultMap faults(mesh);
  const FRingSet rings(faults);
  const DistanceReadingRouting algo(mesh, faults);
  AuditOptions opts;
  opts.threads = 1;
  const auto report = audit_algorithm(algo, mesh, faults, rings, opts);
  ASSERT_FALSE(report.ok());
  ASSERT_FALSE(report.violations.empty());
  for (const auto& v : report.violations) {
    EXPECT_EQ(v.check, AuditCheck::RouteClass) << v.detail;
  }
  std::ostringstream os;
  ftmesh::verify::print_audit_report(os, report);
  EXPECT_NE(os.str().find("[route-class]"), std::string::npos);
}

// ---- the audit provably catches broken routing functions --------------

TEST(Audit, BrokenDemoIsFlaggedForCoverageUnderFaults) {
  const Mesh mesh(6, 6);
  const auto faults = FaultMap::from_blocks(mesh, {Rect{2, 2, 3, 3}});
  const FRingSet rings(faults);
  const ftmesh::verify::BrokenDemoRouting algo(mesh, faults);
  AuditOptions opts;
  opts.threads = 1;
  opts.max_violations = 4;
  const auto report = audit_algorithm(algo, mesh, faults, rings, opts);
  ASSERT_FALSE(report.ok());
  EXPECT_LE(report.violations.size(), 4u);
  EXPECT_GE(report.violation_count, report.violations.size());
  bool coverage = false;
  for (const auto& v : report.violations) {
    coverage = coverage || v.check == AuditCheck::Coverage;
  }
  EXPECT_TRUE(coverage) << "expected a coverage violation witness";
}

TEST(Audit, BrokenDemoIsCleanOnFaultFreeMesh) {
  // Minimal adaptive routing covers every (src, dst) pair when nothing is
  // blocked; only the fault cases expose the missing misrouting.
  const Mesh mesh(6, 6);
  const FaultMap faults(mesh);
  const FRingSet rings(faults);
  const ftmesh::verify::BrokenDemoRouting algo(mesh, faults);
  EXPECT_TRUE(audit_algorithm(algo, mesh, faults, rings).ok());
}

// An algorithm that emits a VC index outside its own layout: the
// vc-discipline check must catch it at every state.
TEST(Audit, OutOfRangeVcIsFlaggedAsVcDiscipline) {
  const Mesh mesh(5, 5);
  const FaultMap faults(mesh);
  const FRingSet rings(faults);
  const ftmesh::testing::BadVcRouting algo(mesh, faults);
  const auto report = audit_algorithm(algo, mesh, faults, rings);
  ASSERT_FALSE(report.ok());
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations.front().check, AuditCheck::VcDiscipline);
}

TEST(Audit, ReportPrintsSummaryAndWitnesses) {
  const Mesh mesh(6, 6);
  const auto faults = FaultMap::from_blocks(mesh, {Rect{2, 2, 3, 3}});
  const FRingSet rings(faults);
  const ftmesh::verify::BrokenDemoRouting algo(mesh, faults);
  const auto report = audit_algorithm(algo, mesh, faults, rings);
  std::ostringstream os;
  ftmesh::verify::print_audit_report(os, report);
  const auto text = os.str();
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  EXPECT_NE(text.find("coverage"), std::string::npos);
}

// ---- runtime invariant auditor ----------------------------------------

// Drives real traffic and recounts the whole network every cycle at the
// deepest level.  Any drift between the incremental bookkeeping and the
// ground truth throws AuditError and fails the test.
void run_audited_traffic(const std::string& algo_name, int fault_count,
                         int tiles = 1) {
  const Mesh mesh(6, 6);
  const auto faults = make_faults(mesh, fault_count, 5);
  const FRingSet rings(faults);
  const auto algo =
      ftmesh::routing::make_algorithm(algo_name, mesh, faults, rings);
  NetworkConfig cfg;
  cfg.tiles = tiles;
  Network net(mesh, faults, *algo, cfg, Rng(7));

  Rng traffic(21);
  const auto random_live = [&]() -> Coord {
    for (;;) {
      const Coord c{static_cast<int>(traffic.next_below(6)),
                    static_cast<int>(traffic.next_below(6))};
      if (!faults.blocked(c)) return c;
    }
  };
  for (int cycle = 0; cycle < 400; ++cycle) {
    if (cycle < 200 && cycle % 3 == 0) {
      const Coord src = random_live();
      Coord dst = random_live();
      while (dst == src) dst = random_live();
      net.create_message(src, dst, 4);
    }
    net.step();
    ASSERT_NO_THROW(net.audit_invariants(2)) << "cycle " << cycle;
    if (cycle >= 200 && net.drained()) break;
  }
}

TEST(RuntimeAudit, CleanMeshTrafficKeepsEveryInvariant) {
  run_audited_traffic("Minimal-Adaptive", 0);
  run_audited_traffic("Fully-Adaptive", 0);
}

TEST(RuntimeAudit, FaultedRingTrafficKeepsEveryInvariant) {
  run_audited_traffic("Pbc", 3);
}

TEST(RuntimeAudit, TiledTrafficKeepsEveryInvariant) {
  // Four tiles: retirements from every tile and creations at every tile's
  // nodes churn the one free list while the level-1 audit walks it every
  // cycle — a double free, an occupied entry or a lost vacant slot all
  // throw here.
  run_audited_traffic("Minimal-Adaptive", 0, /*tiles=*/4);
  run_audited_traffic("Fully-Adaptive", 0, /*tiles=*/4);
  run_audited_traffic("Pbc", 3, /*tiles=*/4);
}

#if defined(FTMESH_AUDIT) && FTMESH_AUDIT >= 2
TEST(RuntimeAudit, SiteKeyedHitsAreReEnumerated) {
  // The level-2 build re-enumerates every site-keyed cache hit: an
  // algorithm whose candidates read more than its route site must throw
  // as soon as two headers of one site class disagree.
  const Mesh mesh(6, 6);
  const FaultMap faults(mesh);
  const DistanceReadingRouting algo(mesh, faults);
  Network net(mesh, faults, algo, {}, Rng(7));
  const auto drive = [&] {
    for (int cycle = 0; cycle < 200; ++cycle) {
      if (cycle % 2 == 0) {
        // Both sources are interior nodes routing north-east: one site.
        net.create_message({1, 1}, {4, 4}, 4);  // far: two tiers
        net.create_message({3, 3}, {4, 4}, 4);  // near: one tier
      }
      net.step();
    }
  };
  EXPECT_THROW(drive(), ftmesh::router::AuditError);
}

// Uniform nowhere, so every cache entry is keyed by (node, dst); its
// candidates read the header's source, which route_state_key leaves out.
// Two headers from sources of different parity that meet at one node on
// the way to one destination share an entry they must not share.
class SourceReadingRouting : public ftmesh::routing::RoutingAlgorithm {
 public:
  SourceReadingRouting(const Mesh& mesh, const FaultMap& faults)
      : RoutingAlgorithm(mesh, faults),
        layout_(ftmesh::routing::VcLayout::adaptive(1, /*ring=*/false,
                                                    /*xy=*/false)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "Source-Reading";
  }
  [[nodiscard]] const ftmesh::routing::VcLayout& layout()
      const noexcept override {
    return layout_;
  }
  void candidates(Coord at, const ftmesh::router::HeaderState& msg,
                  ftmesh::routing::CandidateList& out) const override {
    std::array<Direction, 2> dirs{};
    const int n = usable_minimal(at, msg.dst, dirs);
    const bool odd = (msg.src.x + msg.src.y) % 2 != 0;
    for (int d = 0; d < n; ++d) {
      if (d == 1 && odd) out.next_tier();
      out.add(dirs[static_cast<std::size_t>(d)], 0);
    }
  }
  [[nodiscard]] ftmesh::routing::DeadlockArgument deadlock_argument()
      const noexcept override {
    return ftmesh::routing::DeadlockArgument::FullCdg;
  }
  [[nodiscard]] std::uint64_t route_state_key(
      const ftmesh::router::HeaderState&) const noexcept override {
    return 0;
  }
  [[nodiscard]] bool uniform_at(Coord) const noexcept override {
    return false;
  }

 private:
  ftmesh::routing::VcLayout layout_;
};

TEST(RuntimeAudit, NodeKeyedHitsAreReEnumerated) {
  // The level-2 build re-enumerates every cache hit, the (node, dst)-keyed
  // ones included: a key that omits a field the candidates read must throw
  // as soon as two headers sharing a key disagree.
  const Mesh mesh(6, 6);
  const FaultMap faults(mesh);
  const SourceReadingRouting algo(mesh, faults);
  Network net(mesh, faults, algo, {}, Rng(7));
  const auto drive = [&] {
    for (int cycle = 0; cycle < 200; ++cycle) {
      if (cycle % 2 == 0) {
        net.create_message({0, 0}, {4, 4}, 4);  // even source: one tier
        net.create_message({1, 0}, {4, 4}, 4);  // odd source: two tiers
      }
      net.step();
    }
  };
  EXPECT_THROW(drive(), ftmesh::router::AuditError);
}
#endif

TEST(RuntimeAudit, CreditBlockedWormsSurvivePurgeAndRebuild) {
  // Long worms into a hot spot keep many input VCs Active behind full
  // downstream buffers, i.e. credit-blocked.  A node fault and a link fault
  // mid-run flush the worms they sever (purge_messages) and refresh the
  // fault-derived state (on_fault_change); both rebuild the active sets,
  // credit-blocked mask included.  The level-2 recount checks every
  // credit-blocked bit and every output-VC feeder after each cycle and
  // after each reconfiguration.
  const Mesh mesh(6, 6);
  FaultMap faults(mesh);
  FRingSet rings(faults);
  const auto algo =
      ftmesh::routing::make_algorithm("Duato-Nbc", mesh, faults, rings);
  Network net(mesh, faults, *algo, {}, Rng(7));
  FaultSchedule sched;
  sched.add(120, FaultEvent{FaultEventKind::Fail, {2, 3}});
  sched.add(260,
            FaultEvent{FaultEventKind::FailLink, {4, 0}, Direction::XPlus});
  FaultInjector inj(std::move(sched), faults, rings, {});

  const Coord hot{3, 3};
  Rng traffic(21);
  const auto credit_blocked_somewhere = [&] {
    const int vcs = algo->layout().total();
    for (const Coord c : faults.active_nodes()) {
      const auto& rt = net.router_at(c);
      for (int port = 0; port < ftmesh::topology::kPortCount; ++port) {
        for (int vc = 0; vc < vcs; ++vc) {
          const auto& route = net.input_route(c, port, vc);
          if (route.stage != IvcStage::Active ||
              route.dir() == Direction::Local) {
            continue;
          }
          if (rt.output(route.port, route.vc).credits == 0) return true;
        }
      }
    }
    return false;
  };
  int blocked_cycles = 0;
  for (int cycle = 0; cycle < 1500; ++cycle) {
    if (inj.tick(net)) {
      net.revalidate_ring_state(rings);
      net.reset_watchdog();
      net.on_fault_change();
      algo->on_fault_change();
      ASSERT_NO_THROW(net.audit_invariants(2))
          << "after the reconfiguration at cycle " << cycle;
      ASSERT_TRUE(faults.active(hot));
    }
    if (cycle < 400 && cycle % 4 == 0) {
      Coord src{};
      do {
        src = {static_cast<int>(traffic.next_below(6)),
               static_cast<int>(traffic.next_below(6))};
      } while (!faults.active(src) || src == hot);
      net.create_message(src, hot, 32);
    }
    net.step();
    ASSERT_NO_THROW(net.audit_invariants(2)) << "cycle " << cycle;
    if (credit_blocked_somewhere()) ++blocked_cycles;
  }
  EXPECT_EQ(inj.log().events_applied, 2);
  EXPECT_GT(inj.log().messages_flushed, 0u);
  EXPECT_GT(blocked_cycles, 0);
  EXPECT_FALSE(net.watchdog().tripped());
}

}  // namespace
