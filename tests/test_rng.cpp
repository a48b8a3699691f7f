// Tests for the deterministic RNG substrate.

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "ftmesh/sim/rng.hpp"

namespace {

using ftmesh::sim::Rng;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsNotDegenerate) {
  Rng r(0);
  std::uint64_t x = r();
  bool varied = false;
  for (int i = 0; i < 16; ++i) {
    const auto y = r();
    if (y != x) varied = true;
    x = y;
  }
  EXPECT_TRUE(varied);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng r(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng r(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[r.next_below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng r(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(17);
  for (int i = 0; i < 5000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(19);
  const double rate = 0.05;
  double sum = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += r.exponential(rate);
  EXPECT_NEAR(sum / kDraws, 1.0 / rate, 1.0 / rate * 0.05);
}

TEST(Rng, ExponentialIsPositive) {
  Rng r(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.exponential(1.0), 0.0);
}

TEST(Rng, ChanceRespectsProbability) {
  Rng r(29);
  int hits = 0;
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    if (r.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits, kDraws * 0.25, kDraws * 0.02);
}

TEST(Rng, DeriveIsDeterministicAndOrderIndependent) {
  Rng a(99);
  Rng c1 = a.derive(5);
  // Advancing the parent must not change what derive() yields.
  (void)a();
  (void)a();
  Rng c2 = a.derive(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1(), c2());
}

TEST(Rng, DeriveWithDifferentSaltsDiverges) {
  Rng a(99);
  Rng c1 = a.derive(1);
  Rng c2 = a.derive(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1() == c2()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// Regression: the extreme bounds used to compute `hi - lo` in signed
// arithmetic (overflow UB for spans wider than INT64_MAX) and the full
// 64-bit range wrapped the span to zero, handing next_below(0) an empty
// interval.  Any value is in range for the full span; the point is that
// UBSan-instrumented builds execute these lines without a finding.
TEST(Rng, UniformIntExtremeBoundsAreDefined) {
  Rng r(7);
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  for (int i = 0; i < 100; ++i) {
    (void)r.uniform_int(kMin, kMax);  // span wraps to 0
    const auto wide = r.uniform_int(kMin, 0);  // span > INT64_MAX
    EXPECT_LE(wide, 0);
    const auto pinned = r.uniform_int(kMax, kMax);
    EXPECT_EQ(pinned, kMax);
    const auto low = r.uniform_int(kMin, kMin);
    EXPECT_EQ(low, kMin);
  }
}

TEST(Rng, SplitMix64KnownSequenceAdvances) {
  std::uint64_t s = 0;
  const auto a = ftmesh::sim::splitmix64(s);
  const auto b = ftmesh::sim::splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_EQ(s, 2 * 0x9e3779b97f4a7c15ULL);
}

// Known-answer values for the counter-based hash.  Every arbitration draw
// in the cycle kernel, the route-cache slot, campaign cell seeds and
// fault-pattern seeds are built on these functions, so any change to their
// bits silently changes every result; these pins catch it at the source.

TEST(CounterHash, KnownAnswers) {
  using ftmesh::sim::counter_hash;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  EXPECT_EQ(counter_hash(0, 0, 0), 0x1e136b3638e1520fULL);
  EXPECT_EQ(counter_hash(1, 2, 3), 0x0faef70efd93ccb1ULL);
  EXPECT_EQ(counter_hash(0x9e3779b97f4a7c15ULL, 30000, 42),
            0x7cb56c688db803d0ULL);
  EXPECT_EQ(counter_hash(kMax, kMax, kMax), 0xe99ff867dbf682c9ULL);
  EXPECT_EQ(counter_hash(12345, 0, 99), 0x7002a69a492401e2ULL);
}

TEST(CounterHash, BelowKnownAnswers) {
  using ftmesh::sim::counter_below;
  EXPECT_EQ(counter_below(0, 0, 0, 120), 14u);
  EXPECT_EQ(counter_below(1, 2, 3, 10), 0u);
  EXPECT_EQ(counter_below(7, 1000, 55, 1), 0u);
  EXPECT_EQ(counter_below(42, 17, 4, std::uint64_t{1} << 40), 509079863502u);
  EXPECT_EQ(counter_below(~std::uint64_t{0}, 5, 6, 3), 1u);
}

TEST(CounterHash, StreamKnownAnswers) {
  ftmesh::sim::CounterRng r(2024);
  EXPECT_EQ(r(), 0x7063df4012fbd3c6ULL);
  EXPECT_EQ(r(), 0x33b0e7d8448b35abULL);
  EXPECT_EQ(r(), 0x07ff319787c62eb6ULL);
  EXPECT_EQ(r(), 0x3eb8c8fc9e935162ULL);
  // next_below continues the same draw index sequence (n = 4, 5, ...).
  EXPECT_EQ(r.next_below(2), 0u);
  EXPECT_EQ(r.next_below(3), 2u);
  EXPECT_EQ(r.next_below(7), 2u);
  EXPECT_EQ(r.next_below(100), 54u);
}

}  // namespace
