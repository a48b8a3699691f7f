// Message slot recycling: free-list reuse, stable ids that outlive their
// slot, and the bounded-memory guarantee (slot table stays O(in-flight) while the
// delivered count grows without bound).

#include <gtest/gtest.h>

#include <map>

#include "ftmesh/router/network.hpp"
#include "ftmesh/routing/registry.hpp"

namespace {

using ftmesh::fault::FaultMap;
using ftmesh::fault::FRingSet;
using ftmesh::router::kInvalidMessage;
using ftmesh::router::MessageId;
using ftmesh::router::Network;
using ftmesh::router::NetworkConfig;
using ftmesh::sim::Rng;
using ftmesh::topology::Coord;
using ftmesh::topology::Mesh;

struct RecyclingFixture {
  Mesh mesh{8, 8};
  FaultMap faults{mesh};
  FRingSet rings{faults};
  std::unique_ptr<ftmesh::routing::RoutingAlgorithm> algo;
  std::unique_ptr<Network> net;

  RecyclingFixture() {
    const NetworkConfig cfg;
    algo = ftmesh::routing::make_algorithm("Minimal-Adaptive", mesh, faults,
                                           rings);
    net = std::make_unique<Network>(mesh, faults, *algo, cfg, Rng(7));
  }

  MessageId deliver_one(Coord src, Coord dst, std::uint32_t length = 8) {
    const auto id = net->create_message(src, dst, length);
    for (int i = 0; i < 400 && !net->message_finished(id); ++i) net->step();
    EXPECT_TRUE(net->message_finished(id));
    return id;
  }
};

TEST(Recycling, SlotIsReusedAfterDelivery) {
  RecyclingFixture f;
  const auto a = f.deliver_one({0, 0}, {4, 4});
  EXPECT_EQ(f.net->message_slots(), 1u);
  EXPECT_EQ(f.net->free_message_slots(), 1u);  // retired slot back on the list

  const auto b = f.net->create_message({1, 1}, {6, 6}, 8);
  EXPECT_EQ(b, a + 1);                          // external ids stay monotonic
  EXPECT_EQ(f.net->message_slots(), 1u);        // ...but the slot is reused
  EXPECT_EQ(f.net->free_message_slots(), 0u);
  EXPECT_EQ(f.net->message(b).id, b);
}

TEST(Recycling, RetiredRecordSurvivesSlotReuse) {
  RecyclingFixture f;
  const auto a = f.deliver_one({0, 0}, {4, 4});
  const auto b = f.deliver_one({2, 2}, {7, 7});  // reuses a's slot
  for (const auto id : {a, b}) {
    const auto* r = f.net->retired_record(id);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->id, id);
    EXPECT_FALSE(r->aborted);
    EXPECT_GT(r->delivered, r->created);
  }
  EXPECT_EQ(f.net->retired().size(), 2u);
  EXPECT_EQ(f.net->messages_created(), 2u);
}

TEST(Recycling, RetiredIdStaysFinishedAfterSlotReuse) {
  // An id held across a retirement (a pending retransmission, say) must
  // keep naming the retired message, never the slot's next occupant.
  RecyclingFixture f;
  const auto a = f.net->create_message({0, 0}, {4, 4}, 8);
  EXPECT_FALSE(f.net->message_finished(a));
  for (int i = 0; i < 400 && !f.net->message_finished(a); ++i) f.net->step();
  ASSERT_TRUE(f.net->message_finished(a));

  // The next message takes the recycled slot under a fresh id: the old id
  // stays finished, the new one is live and names its own message.
  const auto b = f.net->create_message({1, 1}, {6, 6}, 8);
  EXPECT_EQ(f.net->message_slots(), 1u);  // the one slot, reused
  EXPECT_NE(b, a);
  EXPECT_TRUE(f.net->message_finished(a));
  EXPECT_FALSE(f.net->message_finished(b));
  EXPECT_EQ(f.net->message(b).id, b);
  EXPECT_EQ(f.net->message(b).src, (Coord{1, 1}));
  ASSERT_NE(f.net->retired_record(a), nullptr);
  EXPECT_EQ(f.net->retired_record(b), nullptr);
}

TEST(Recycling, TwoCreationsInOneWindowKeepBothMessages) {
  // Two creations in the same between-cycles window: each message gets its
  // own slot, id and record.
  RecyclingFixture f;
  std::map<MessageId, Coord> ejected_at;  // tail ejections, by id
  f.net->set_eject_hook([&](const ftmesh::router::Flit& flit, Coord c) {
    if (ftmesh::router::is_tail(flit.type)) {
      ejected_at[f.net->slot_message(flit.msg).id] = c;
    }
  });
  const Coord a_dst{0, 7};
  const Coord b_dst{6, 0};
  const auto a = f.net->create_message({0, 0}, a_dst, 8);
  EXPECT_FALSE(f.net->message_finished(a));  // live, not retired
  const auto b = f.net->create_message({1, 0}, b_dst, 8);
  ASSERT_EQ(b, a + 1);
  EXPECT_EQ(f.net->message(a).dst, a_dst);
  EXPECT_EQ(f.net->message(b).dst, b_dst);
  EXPECT_EQ(f.net->message_slots(), 2u);  // one slot each
  EXPECT_FALSE(f.net->message_finished(a));
  EXPECT_FALSE(f.net->message_finished(b));
  for (int i = 0; i < 400 && !(f.net->message_finished(a) &&
                               f.net->message_finished(b));
       ++i) {
    f.net->step();
    ASSERT_NO_THROW(f.net->audit_invariants(2)) << "cycle " << i;
  }
  ASSERT_TRUE(f.net->message_finished(a));
  ASSERT_TRUE(f.net->message_finished(b));
  ASSERT_EQ(ejected_at.size(), 2u);
  EXPECT_EQ(ejected_at[a], a_dst);
  EXPECT_EQ(ejected_at[b], b_dst);
  EXPECT_EQ(f.net->retired().size(), 2u);
}

TEST(Recycling, SlotTableStaysBoundedOverLongRuns) {
  // The bounded-memory claim: drive a stationary load until the delivered
  // count grows 100x past the slot high-water mark observed after warm-up.
  // The slot table tracks the in-flight population, not history, so it must
  // plateau.
  RecyclingFixture f;
  Rng rng(21);
  const auto offer = [&](std::uint64_t cycle) {
    if (cycle % 2 != 0) return;
    const Coord src{static_cast<int>(rng.next_below(8)),
                    static_cast<int>(rng.next_below(8))};
    const Coord dst{static_cast<int>(rng.next_below(8)),
                    static_cast<int>(rng.next_below(8))};
    if (!(src == dst)) f.net->create_message(src, dst, 8);
  };

  for (std::uint64_t c = 0; c < 500; ++c) {
    offer(c);
    f.net->step();
  }
  const std::size_t high_water = f.net->message_slots();
  ASSERT_GT(high_water, 0u);
  const std::size_t target = 100 * high_water;

  std::uint64_t c = 500;
  for (; c < 2'000'000 && f.net->retired().size() < target; ++c) {
    offer(c);
    f.net->step();
  }
  ASSERT_GE(f.net->retired().size(), target) << "load never delivered enough";

  // Stationary load, stationary footprint: the table may grow a little past
  // the warm-up watermark while the queues fill, but stays O(in-flight) —
  // nowhere near O(delivered).
  EXPECT_LE(f.net->message_slots(), 2 * high_water);
  EXPECT_LT(f.net->message_slots(), f.net->retired().size() / 10);
  EXPECT_EQ(f.net->messages_created(),
            static_cast<MessageId>(f.net->retired().size() +
                                   (f.net->message_slots() -
                                    f.net->free_message_slots())));
}

}  // namespace
