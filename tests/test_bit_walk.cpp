// Tests for the set-bit walks (sim/bit_walk.hpp) that drive the cycle
// kernel's VC visits: the ascending walk must equal a naive ascending scan,
// and the rotated walk must equal the naive (k + offset) % n scan that the
// routing phase's rotation fairness is defined by.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ftmesh/sim/bit_walk.hpp"
#include "ftmesh/sim/rng.hpp"

namespace {

using ftmesh::sim::for_each_set_bit;
using ftmesh::sim::for_each_set_bit_from;
using ftmesh::sim::Rng;

bool bit(const std::vector<std::uint64_t>& m, std::size_t i) {
  return ((m[i >> 6] >> (i & 63u)) & 1u) != 0;
}

std::vector<std::size_t> naive_rotated(const std::vector<std::uint64_t>& m,
                                       std::size_t n, std::size_t offset) {
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (k + offset) % n;
    if (bit(m, i)) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> walked_rotated(const std::vector<std::uint64_t>& m,
                                        std::size_t n, std::size_t offset) {
  std::vector<std::size_t> out;
  for_each_set_bit_from(m.data(), n, offset,
                        [&](std::size_t i) { out.push_back(i); });
  return out;
}

/// An n-bit mask (bits at and above n clear) with each bit set with
/// probability `percent` / 100.
std::vector<std::uint64_t> random_mask(Rng& rng, std::size_t n, int percent) {
  std::vector<std::uint64_t> m((n + 63) / 64, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<int>(rng.next_below(100)) < percent) {
      m[i >> 6] |= std::uint64_t{1} << (i & 63u);
    }
  }
  return m;
}

// Mask widths of 1, 2, 3 and 20 words: 5 x V input VCs for V = 8, 24, 32
// and 256 (the total_vcs maximum), plus the word-filling widths.
const std::size_t kWidths[] = {40, 64, 120, 128, 160, 192, 1280};

std::vector<std::size_t> offsets_for(Rng& rng, std::size_t n) {
  std::vector<std::size_t> out;
  for (const std::size_t o : {std::size_t{0}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, n - 1}) {
    if (o < n) out.push_back(o);
  }
  for (int i = 0; i < 8; ++i) out.push_back(rng.next_below(n));
  return out;
}

TEST(BitWalk, RotatedWalkMatchesNaiveModuloScan) {
  Rng rng(2024);
  for (const std::size_t n : kWidths) {
    std::vector<std::vector<std::uint64_t>> masks;
    masks.push_back(random_mask(rng, n, 0));    // empty
    masks.push_back(random_mask(rng, n, 100));  // all ones
    for (const int percent : {1, 5, 50, 95}) {
      for (int rep = 0; rep < 4; ++rep) {
        masks.push_back(random_mask(rng, n, percent));
      }
    }
    for (const auto& m : masks) {
      for (const std::size_t offset : offsets_for(rng, n)) {
        EXPECT_EQ(walked_rotated(m, n, offset), naive_rotated(m, n, offset))
            << "n=" << n << " offset=" << offset;
      }
    }
  }
}

TEST(BitWalk, AscendingWalkMatchesNaiveScan) {
  Rng rng(7);
  for (const std::size_t n : kWidths) {
    for (const int percent : {0, 3, 50, 100}) {
      const auto m = random_mask(rng, n, percent);
      std::vector<std::size_t> naive;
      for (std::size_t i = 0; i < n; ++i) {
        if (bit(m, i)) naive.push_back(i);
      }
      std::vector<std::size_t> walked;
      for_each_set_bit(m.data(), m.size(),
                       [&](std::size_t i) { walked.push_back(i); });
      EXPECT_EQ(walked, naive) << "n=" << n << " percent=" << percent;
      // Ascending is the rotated walk at offset 0.
      EXPECT_EQ(walked_rotated(m, n, 0), naive);
    }
  }
}

TEST(BitWalk, CallbackMayClearTheBitItWasHanded) {
  // The routing phase clears each header's ready bit as it routes it; the
  // walk must still visit every originally set bit once, in order.
  Rng rng(99);
  for (const std::size_t n : kWidths) {
    auto m = random_mask(rng, n, 40);
    for (const std::size_t offset : offsets_for(rng, n)) {
      auto live = m;
      const auto expected = naive_rotated(m, n, offset);
      std::vector<std::size_t> walked;
      for_each_set_bit_from(live.data(), n, offset, [&](std::size_t i) {
        walked.push_back(i);
        live[i >> 6] &= ~(std::uint64_t{1} << (i & 63u));
      });
      EXPECT_EQ(walked, expected) << "n=" << n << " offset=" << offset;
      for (const std::uint64_t w : live) EXPECT_EQ(w, 0u);
    }
  }
}

}  // namespace
