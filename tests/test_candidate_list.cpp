// Tests for the flattened hot-path storage: SmallVec, FlitRing and the
// CandidateList tier bookkeeping across the inline -> heap transition.

#include <gtest/gtest.h>

#include <vector>

#include "ftmesh/router/flit_ring.hpp"
#include "ftmesh/routing/routing_algorithm.hpp"
#include "ftmesh/sim/small_vec.hpp"

namespace {

using ftmesh::router::Flit;
using ftmesh::router::FlitRing;
using ftmesh::router::FlitType;
using ftmesh::routing::CandidateList;
using ftmesh::routing::CandidateVc;
using ftmesh::sim::SmallVec;
using ftmesh::topology::Direction;

// ---- SmallVec -------------------------------------------------------------

TEST(SmallVec, StaysInlineUpToCapacity) {
  SmallVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.inline_storage());
  EXPECT_EQ(v.capacity(), 4u);
  for (int i = 0; i < 4; ++i) v.push_back(i * 10);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_TRUE(v.inline_storage());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i * 10);
}

TEST(SmallVec, GrowsToHeapPreservingContents) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 9; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 9u);
  EXPECT_FALSE(v.inline_storage());
  EXPECT_GE(v.capacity(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(v.back(), 8);
}

TEST(SmallVec, ClearKeepsHeapCapacity) {
  SmallVec<int, 2> v;
  for (int i = 0; i < 20; ++i) v.push_back(i);
  const std::size_t cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);   // no shrink: scratch reuse stays heap-free
  EXPECT_FALSE(v.inline_storage());
  v.push_back(42);
  EXPECT_EQ(v[0], 42);
}

TEST(SmallVec, CopyAndEqualityAcrossStorageModes) {
  SmallVec<int, 4> inl;
  for (int i = 0; i < 3; ++i) inl.push_back(i);
  SmallVec<int, 4> heap;
  for (int i = 0; i < 3; ++i) heap.push_back(i);
  for (int i = 0; i < 5; ++i) heap.push_back(100 + i);
  // Equality compares contents, not storage mode.
  SmallVec<int, 4> copy(heap);
  EXPECT_TRUE(copy == heap);
  EXPECT_FALSE(copy == inl);
  copy.clear();
  for (int i = 0; i < 3; ++i) copy.push_back(i);
  EXPECT_TRUE(copy == inl);
}

TEST(SmallVec, RangeForIteratesInOrder) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 7; ++i) v.push_back(i);
  int expect = 0;
  for (int x : v) EXPECT_EQ(x, expect++);
  EXPECT_EQ(expect, 7);
}

// ---- FlitRing -------------------------------------------------------------

Flit make_flit(std::uint32_t seq, FlitType type = FlitType::Body) {
  Flit f;
  f.msg = 1;
  f.seq = seq;
  f.type = type;
  return f;
}

TEST(FlitRing, ShallowDepthNeedsNoHeap) {
  FlitRing ring;
  ring.reset_capacity(FlitRing::kInlineCapacity);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), FlitRing::kInlineCapacity);
}

TEST(FlitRing, FifoOrderAcrossWrap) {
  FlitRing ring;
  ring.reset_capacity(3);
  std::uint32_t next_push = 0;
  std::uint32_t next_pop = 0;
  // Push/pop far more flits than the capacity so head_ wraps repeatedly.
  for (int round = 0; round < 10; ++round) {
    while (ring.size() < 3) ring.push_back(make_flit(next_push++));
    ASSERT_EQ(ring.size(), 3u);
    for (std::size_t i = 0; i < ring.size(); ++i) {
      EXPECT_EQ(ring[i].seq, next_pop + i);
    }
    EXPECT_EQ(ring.front().seq, next_pop);
    ring.pop_front();
    ++next_pop;
  }
  EXPECT_EQ(ring.size(), 2u);
}

TEST(FlitRing, DeepBufferUsesHeapTransparently) {
  FlitRing ring;
  ring.reset_capacity(16);  // > kInlineCapacity
  for (std::uint32_t i = 0; i < 16; ++i) ring.push_back(make_flit(i));
  EXPECT_EQ(ring.size(), 16u);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(ring.front().seq, i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(FlitRing, WrapsAtTheLargestCapacity) {
  // head + count passes 65535 here: the wrap must not fold it in 16 bits,
  // or the second push below overwrites the flit the first one stored.
  FlitRing ring;
  ring.reset_capacity(FlitRing::kMaxCapacity);
  const auto cap = static_cast<std::uint32_t>(FlitRing::kMaxCapacity);
  for (std::uint32_t i = 0; i < cap; ++i) ring.push_back(make_flit(i));
  for (std::uint32_t i = 0; i + 1 < cap; ++i) ring.pop_front();
  ring.push_back(make_flit(cap));
  ring.push_back(make_flit(cap + 1));
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring[1].seq, cap);
  for (std::uint32_t i = cap - 1; i <= cap + 1; ++i) {
    EXPECT_EQ(ring.front().seq, i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(FlitRing, RemoveIfPreservesSurvivorOrder) {
  FlitRing ring;
  ring.reset_capacity(8);
  // Wrap the head first so the compaction has to handle a split layout.
  for (std::uint32_t i = 0; i < 5; ++i) ring.push_back(make_flit(i));
  for (int i = 0; i < 3; ++i) ring.pop_front();
  for (std::uint32_t i = 5; i < 11; ++i) ring.push_back(make_flit(i));
  // Ring now holds seqs 3..10.
  const std::size_t removed =
      ring.remove_if([](const Flit& f) { return f.seq % 2 == 0; });
  EXPECT_EQ(removed, 4u);  // 4, 6, 8, 10
  ASSERT_EQ(ring.size(), 4u);
  const std::uint32_t expect[] = {3, 5, 7, 9};
  std::size_t at = 0;
  for (const Flit& f : ring) EXPECT_EQ(f.seq, expect[at++]);
}

TEST(FlitRing, RemoveEverything) {
  FlitRing ring;
  ring.reset_capacity(4);
  for (std::uint32_t i = 0; i < 4; ++i) ring.push_back(make_flit(i));
  EXPECT_EQ(ring.remove_if([](const Flit&) { return true; }), 4u);
  EXPECT_TRUE(ring.empty());
  ring.push_back(make_flit(99));  // still usable after a full purge
  EXPECT_EQ(ring.front().seq, 99u);
}

// ---- CandidateList tier bookkeeping ---------------------------------------

TEST(CandidateList, TierRangesWhileInline) {
  CandidateList c;
  EXPECT_TRUE(c.inline_storage());
  c.add(Direction::XPlus, 0);
  c.add(Direction::YPlus, 1);
  c.next_tier();
  c.add(Direction::XMinus, 2);
  ASSERT_EQ(c.size(), 3u);
  ASSERT_EQ(c.tier_count(), 2u);
  EXPECT_EQ(c.tier_range(0), std::make_pair(std::size_t{0}, std::size_t{2}));
  EXPECT_EQ(c.tier_range(1), std::make_pair(std::size_t{2}, std::size_t{3}));
  EXPECT_TRUE(c.inline_storage());
}

TEST(CandidateList, EmptyTrailingTierIsKept) {
  CandidateList c;
  c.add(Direction::XPlus, 0);
  c.next_tier();  // tier 1 stays empty
  ASSERT_EQ(c.tier_count(), 2u);
  EXPECT_EQ(c.tier_range(1), std::make_pair(std::size_t{1}, std::size_t{1}));
}

TEST(CandidateList, AllEmptyListHasNoTiers) {
  CandidateList c;
  c.next_tier();
  c.next_tier();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.tier_count(), 0u);
}

TEST(CandidateList, TierBookkeepingSurvivesInlineToHeapTransition) {
  // The inline capacity is 16 items / 8 tier boundaries; push well past
  // both and verify every tier range is exactly where it was added.
  CandidateList c;
  std::vector<std::pair<std::size_t, std::size_t>> expected;
  std::size_t begin = 0;
  constexpr std::size_t kTiers = 12;   // > 8 boundaries
  constexpr std::size_t kPerTier = 3;  // 36 items > 16
  for (std::size_t t = 0; t < kTiers; ++t) {
    if (t > 0) c.next_tier();
    for (std::size_t i = 0; i < kPerTier; ++i) {
      c.add(Direction::YMinus, static_cast<int>(t * kPerTier + i));
    }
    expected.emplace_back(begin, begin + kPerTier);
    begin += kPerTier;
  }
  EXPECT_FALSE(c.inline_storage());
  ASSERT_EQ(c.size(), kTiers * kPerTier);
  ASSERT_EQ(c.tier_count(), kTiers);
  for (std::size_t t = 0; t < kTiers; ++t) {
    EXPECT_EQ(c.tier_range(t), expected[t]) << "tier " << t;
    const auto [lo, hi] = c.tier_range(t);
    for (std::size_t i = lo; i < hi; ++i) {
      EXPECT_EQ(c[i].vc, static_cast<int>(i));
    }
  }
}

TEST(CandidateList, ClearResetsTiersAndReusesStorage) {
  CandidateList c;
  for (int i = 0; i < 20; ++i) {
    c.add(Direction::XPlus, i);
    c.next_tier();
  }
  c.clear();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.tier_count(), 0u);
  c.add(Direction::XMinus, 7);
  ASSERT_EQ(c.tier_count(), 1u);
  EXPECT_EQ(c.tier_range(0), std::make_pair(std::size_t{0}, std::size_t{1}));
}

TEST(CandidateList, EqualityComparesItemsAndTiers) {
  CandidateList a;
  a.add(Direction::XPlus, 0);
  a.next_tier();
  a.add(Direction::XMinus, 1);

  CandidateList b;
  b.add(Direction::XPlus, 0);
  b.next_tier();
  b.add(Direction::XMinus, 1);
  EXPECT_TRUE(a == b);

  // Same items, different tier structure -> not equal (the router would
  // allocate differently), so the route cache must distinguish them.
  CandidateList flat;
  flat.add(Direction::XPlus, 0);
  flat.add(Direction::XMinus, 1);
  EXPECT_FALSE(a == flat);
}

}  // namespace
