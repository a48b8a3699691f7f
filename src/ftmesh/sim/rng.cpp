#include "ftmesh/sim/rng.hpp"

#include <cmath>

namespace ftmesh::sim {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start in the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (l < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  // All arithmetic in unsigned space: `hi - lo` as signed overflows for
  // spans wider than INT64_MAX, and the full [INT64_MIN, INT64_MAX] range
  // wraps the span to 0, which next_below must never see.  Unsigned
  // subtraction/addition are modular and the final conversion back is
  // two's-complement (well-defined since C++20).
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  const std::uint64_t offset = span == 0 ? (*this)() : next_below(span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
}

double Rng::next_double() noexcept {
  // 53 high bits -> [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::exponential(double rate) noexcept {
  // Inverse CDF; 1 - u in (0, 1] avoids log(0).
  return -std::log(1.0 - next_double()) / rate;
}

bool Rng::chance(double p) noexcept { return next_double() < p; }

Rng Rng::derive(std::uint64_t salt) const noexcept {
  std::uint64_t sm = seed_ ^ (0xd1b54a32d192ed03ULL * (salt + 1));
  return Rng(splitmix64(sm));
}

}  // namespace ftmesh::sim
