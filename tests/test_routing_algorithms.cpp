// Unit tests for XY, Duato, Minimal-Adaptive, Fully-Adaptive and the
// registry that assembles the paper's eleven configurations.

#include <gtest/gtest.h>

#include "ftmesh/routing/duato.hpp"
#include "ftmesh/routing/fully_adaptive.hpp"
#include "ftmesh/routing/minimal_adaptive.hpp"
#include "ftmesh/routing/registry.hpp"
#include "ftmesh/routing/xy.hpp"

namespace {

using ftmesh::fault::FaultMap;
using ftmesh::fault::FRingSet;
using ftmesh::fault::Rect;
using ftmesh::router::HeaderState;
using ftmesh::routing::CandidateList;
using ftmesh::routing::VcLayout;
using ftmesh::routing::VcRole;
using ftmesh::topology::Coord;
using ftmesh::topology::Direction;
using ftmesh::topology::Mesh;

HeaderState make_msg(Coord src, Coord dst) {
  HeaderState m;
  m.src = src;
  m.dst = dst;
  return m;
}

struct Fixture {
  Mesh mesh{10, 10};
  FaultMap faults{mesh};
};

TEST(Xy, ResolvesXThenY) {
  Fixture f;
  ftmesh::routing::XyRouting xy(f.mesh, f.faults,
                                VcLayout::duato(24, 0, 0, true, true));
  auto msg = make_msg({1, 1}, {4, 6});
  CandidateList out;
  xy.candidates({1, 1}, msg, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dir, Direction::XPlus);
  out.clear();
  xy.candidates({4, 1}, msg, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dir, Direction::YPlus);
  out.clear();
  xy.candidates({4, 6}, msg, out);
  EXPECT_TRUE(out.empty());  // at destination: ejection is the router's job
}

TEST(Xy, UsesOnlyXyEscapeChannel) {
  Fixture f;
  const auto layout = VcLayout::duato(24, 0, 0, true, true);
  ftmesh::routing::XyRouting xy(f.mesh, f.faults, layout);
  auto msg = make_msg({0, 0}, {5, 5});
  CandidateList out;
  xy.candidates({0, 0}, msg, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(layout.at(out[0].vc).role, VcRole::XyEscape);
}

TEST(Duato, ClassIThenEscapeTiers) {
  Fixture f;
  const auto layout = VcLayout::duato(24, 0, 0, true, true);
  auto escape = std::make_unique<ftmesh::routing::XyRouting>(f.mesh, f.faults, layout);
  ftmesh::routing::Duato duato(f.mesh, f.faults, std::move(escape), layout, "D");
  auto msg = make_msg({2, 2}, {5, 6});
  CandidateList out;
  duato.candidates({2, 2}, msg, out);
  ASSERT_EQ(out.tier_count(), 2u);
  const auto [b1, e1] = out.tier_range(0);
  EXPECT_EQ(e1 - b1, 2u * 19u);  // 2 minimal dirs x 19 class-I channels
  const auto [b2, e2] = out.tier_range(1);
  ASSERT_EQ(e2 - b2, 1u);  // 1 XY escape
  EXPECT_EQ(out[b2].dir, Direction::XPlus);
}

TEST(MinimalAdaptive, SingleTierFreeChoice) {
  Fixture f;
  ftmesh::routing::MinimalAdaptive ma(f.mesh, f.faults,
                                      VcLayout::adaptive(24, true, true));
  auto msg = make_msg({2, 2}, {5, 6});
  CandidateList out;
  ma.candidates({2, 2}, msg, out);
  EXPECT_EQ(out.tier_count(), 1u);
  EXPECT_EQ(out.size(), 2u * 19u + 1u);  // all adaptive + the XY channel
}

TEST(MinimalAdaptive, NeverOffersNonMinimal) {
  Fixture f;
  ftmesh::routing::MinimalAdaptive ma(f.mesh, f.faults,
                                      VcLayout::adaptive(24, true, false));
  auto msg = make_msg({5, 5}, {9, 5});
  CandidateList out;
  ma.candidates({5, 5}, msg, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].dir, Direction::XPlus);
  }
}

TEST(FullyAdaptive, MisroutesOnlyInSecondTier) {
  Fixture f;
  ftmesh::routing::FullyAdaptive fa(f.mesh, f.faults,
                                    VcLayout::adaptive(24, true, false), 10);
  auto msg = make_msg({5, 5}, {9, 5});
  CandidateList out;
  fa.candidates({5, 5}, msg, out);
  ASSERT_EQ(out.tier_count(), 2u);
  const auto [b1, e1] = out.tier_range(0);
  for (std::size_t i = b1; i < e1; ++i) EXPECT_EQ(out[i].dir, Direction::XPlus);
  const auto [b2, e2] = out.tier_range(1);
  EXPECT_GT(e2, b2);
  for (std::size_t i = b2; i < e2; ++i) EXPECT_NE(out[i].dir, Direction::XPlus);
}

TEST(FullyAdaptive, MisrouteBudgetExhausts) {
  Fixture f;
  ftmesh::routing::FullyAdaptive fa(f.mesh, f.faults,
                                    VcLayout::adaptive(24, true, false), 10);
  auto msg = make_msg({5, 5}, {9, 5});
  msg.rs.misroutes = 10;
  CandidateList out;
  fa.candidates({5, 5}, msg, out);
  const auto [b2, e2] = out.tier_range(out.tier_count() - 1);
  // Only the minimal tier remains populated.
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].dir, Direction::XPlus);
  }
  (void)b2;
  (void)e2;
}

TEST(FullyAdaptive, NoUturnMisroute) {
  Fixture f;
  ftmesh::routing::FullyAdaptive fa(f.mesh, f.faults,
                                    VcLayout::adaptive(24, true, false), 10);
  auto msg = make_msg({5, 5}, {9, 5});
  msg.rs.last_dir = Direction::XPlus;  // arrived travelling east
  CandidateList out;
  fa.candidates({6, 5}, msg, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NE(out[i].dir, Direction::XMinus);
  }
}

TEST(Registry, NamesAreCanonical) {
  const auto& names = ftmesh::routing::algorithm_names();
  EXPECT_EQ(names.size(), 11u);
  for (const auto& n : names) {
    EXPECT_TRUE(ftmesh::routing::is_algorithm_name(n));
  }
  EXPECT_FALSE(ftmesh::routing::is_algorithm_name("NoSuchAlgorithm"));
}

TEST(Registry, BuildsEveryAlgorithmAt24Vcs) {
  Fixture f;
  const FRingSet rings(f.faults);
  for (const auto& name : ftmesh::routing::algorithm_names()) {
    const auto algo =
        ftmesh::routing::make_algorithm(name, f.mesh, f.faults, rings);
    ASSERT_NE(algo, nullptr);
    EXPECT_EQ(algo->name(), name);
    EXPECT_EQ(algo->layout().total(), 24);
  }
}

TEST(Registry, RejectsUnknownName) {
  Fixture f;
  const FRingSet rings(f.faults);
  EXPECT_THROW(
      ftmesh::routing::make_algorithm("bogus", f.mesh, f.faults, rings),
      std::invalid_argument);
}

TEST(Registry, RejectsInsufficientVcBudget) {
  Fixture f;
  const FRingSet rings(f.faults);
  ftmesh::routing::RoutingOptions opts;
  opts.total_vcs = 10;  // PHop needs 19 + 4
  EXPECT_THROW(
      ftmesh::routing::make_algorithm("PHop", f.mesh, f.faults, rings, opts),
      std::invalid_argument);
}

TEST(Registry, RejectsVcBudgetAboveByteRange) {
  // Candidate lists store each VC index in a byte: 256 VCs is the most
  // every algorithm accepts, 257 the least each refuses.
  const Mesh mesh(3, 3);
  const FaultMap faults(mesh);
  const FRingSet rings(faults);
  ftmesh::routing::RoutingOptions opts;
  for (const auto& name : ftmesh::routing::algorithm_names()) {
    opts.total_vcs = ftmesh::routing::kMaxVcs;
    EXPECT_NO_THROW(
        ftmesh::routing::make_algorithm(name, mesh, faults, rings, opts))
        << name;
    opts.total_vcs = ftmesh::routing::kMaxVcs + 1;
    EXPECT_THROW(
        ftmesh::routing::make_algorithm(name, mesh, faults, rings, opts),
        std::invalid_argument)
        << name;
  }
}

TEST(Registry, MinVcsMatchesPaperAccounting) {
  const Mesh m(10, 10);
  EXPECT_EQ(ftmesh::routing::min_vcs_required("PHop", m), 23);
  EXPECT_EQ(ftmesh::routing::min_vcs_required("NHop", m), 14);
  EXPECT_EQ(ftmesh::routing::min_vcs_required("Duato-Pbc", m), 24);
  EXPECT_EQ(ftmesh::routing::min_vcs_required("Duato-Nbc", m), 15);
  EXPECT_EQ(ftmesh::routing::min_vcs_required("Boura-FT", m), 7);
}

TEST(Registry, CandidatesNeverTargetBlockedNodes) {
  const Mesh mesh(10, 10);
  const auto faults = FaultMap::from_blocks(mesh, {Rect{4, 4, 5, 6}});
  const FRingSet rings(faults);
  for (const auto& name : ftmesh::routing::algorithm_names()) {
    const auto algo = ftmesh::routing::make_algorithm(name, mesh, faults, rings);
    for (int y = 0; y < 10; ++y) {
      for (int x = 0; x < 10; ++x) {
        const Coord at{x, y};
        if (faults.blocked(at)) continue;
        auto msg = make_msg(at, {9, 9});
        if (faults.blocked(msg.dst) || at == msg.dst) continue;
        algo->on_inject(msg);
        CandidateList out;
        algo->candidates(at, msg, out);
        for (std::size_t i = 0; i < out.size(); ++i) {
          const auto next = mesh.neighbour(at, out[i].dir);
          ASSERT_TRUE(next.has_value()) << name;
          EXPECT_FALSE(faults.blocked(*next)) << name;
        }
      }
    }
  }
}

}  // namespace
