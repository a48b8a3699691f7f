#pragma once
// Set-bit walks over a multi-word bitmask (bit i lives in word i/64, at
// position i%64).  The cycle kernel's occupancy masks — tile node masks and
// per-node input-VC ready masks — are consumed through these two loops, so
// the visit order they define is the order the kernel's arbitration sees.
//
// Both walks read one word at a time and iterate over that snapshot, so
// the callback may clear the bit it was handed but must not set bits in
// the mask being walked.

#include <bit>
#include <cstddef>
#include <cstdint>

namespace ftmesh::sim {

/// Calls `fn(i)` for every set bit i of the first `nwords` words, in
/// ascending order.
template <typename Fn>
inline void for_each_set_bit(const std::uint64_t* words, std::size_t nwords,
                             Fn&& fn) {
  for (std::size_t w = 0; w < nwords; ++w) {
    for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
      fn((w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
}

/// Calls `fn(i)` for every set bit i of an `nbits`-bit mask in rotated
/// order: ascending from `offset` up to nbits - 1, then from 0 up to
/// offset - 1.  This is exactly the order of the naive scan
/// `for k in [0, nbits): i = (k + offset) % nbits` restricted to set bits,
/// without a division per position.  Requires offset < nbits and every bit
/// at or above nbits clear.
template <typename Fn>
inline void for_each_set_bit_from(const std::uint64_t* words,
                                  std::size_t nbits, std::size_t offset,
                                  Fn&& fn) {
  const std::size_t nwords = (nbits + 63) / 64;
  const std::size_t first = offset >> 6;
  const unsigned shift = static_cast<unsigned>(offset & 63u);
  const auto visit = [&](std::size_t w, std::uint64_t word) {
    for (; word != 0; word &= word - 1) {
      fn((w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
    }
  };
  visit(first, words[first] & (~std::uint64_t{0} << shift));
  for (std::size_t w = first + 1; w < nwords; ++w) visit(w, words[w]);
  for (std::size_t w = 0; w < first; ++w) visit(w, words[w]);
  if (shift != 0) {
    visit(first, words[first] & ((std::uint64_t{1} << shift) - 1));
  }
}

}  // namespace ftmesh::sim
