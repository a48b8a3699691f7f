#pragma once
// Deterministic random number generation for the simulator.
//
// Every stochastic decision in ftmesh (fault placement, injection times,
// destination choice, arbitration ties) draws from an explicitly seeded
// xoshiro256** stream, so a simulation is a pure function of
// (configuration, seed).  Sub-streams are derived with SplitMix64 so that
// e.g. fault-pattern #k is identical no matter how many threads run the
// experiment or in which order patterns execute.

#include <array>
#include <cstdint>
#include <limits>

namespace ftmesh::sim {

/// SplitMix64 step: used for seeding and for deriving sub-streams.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless counter-based hash of (seed, a, b): two chained SplitMix64
/// finalisations.  Unlike a shared-stream draw, the value for one counter
/// pair is independent of how many other pairs were evaluated, so a
/// scheduler that skips idle work cannot perturb anybody else's randomness
/// (the "counter-based RNG" idiom from parallel simulation).  Inline: the
/// cycle kernel calls it per routed node, per crossbar shuffle and per
/// route-cache probe.
inline std::uint64_t counter_hash(std::uint64_t seed, std::uint64_t a,
                                  std::uint64_t b) noexcept {
  std::uint64_t state = seed ^ (0xbf58476d1ce4e5b9ULL * (a + 1));
  (void)splitmix64(state);
  state ^= 0x94d049bb133111ebULL * (b + 1);
  return splitmix64(state);
}

/// counter_hash reduced to [0, bound) by the multiply-shift map.
/// bound must be > 0.
inline std::uint64_t counter_below(std::uint64_t seed, std::uint64_t a,
                                   std::uint64_t b,
                                   std::uint64_t bound) noexcept {
  const __uint128_t m =
      static_cast<__uint128_t>(counter_hash(seed, a, b)) * bound;
  return static_cast<std::uint64_t>(m >> 64);
}

/// A draw *stream* over counter_hash: the n-th value is
/// counter_hash(seed, n, 0).  Used for arbitration inside the (optionally
/// sharded) cycle kernel — each (cycle, node) gets its own seed, so a
/// node's draws are a pure function of its local state and can never be
/// perturbed by scan order, tiling or thread scheduling.  Satisfies the
/// UniformRandomBitGenerator shape so it is interchangeable with Rng at
/// the arbitration call sites.
class CounterRng {
 public:
  using result_type = std::uint64_t;

  explicit CounterRng(std::uint64_t seed) noexcept : seed_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return counter_hash(seed_, n_++, 0); }

  /// Uniform integer in [0, bound); bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    return counter_below(seed_, n_++, 0, bound);
  }

 private:
  std::uint64_t seed_;
  std::uint64_t n_ = 0;
};

/// xoshiro256** 1.0 — fast, high-quality, 2^256-1 period.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept;

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  /// bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Exponentially distributed value with the given rate (mean = 1/rate).
  double exponential(double rate) noexcept;

  /// Bernoulli trial.
  bool chance(double p) noexcept;

  /// Derives an independent child stream; deterministic in (this stream's
  /// seed, salt).  Does not advance this generator.
  Rng derive(std::uint64_t salt) const noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t seed_ = 0;  // retained so derive() is order-independent
};

}  // namespace ftmesh::sim
