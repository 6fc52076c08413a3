// Deterministic per-index random streams (splitmix64) plus the exponential
// sampler the low-diameter decomposition needs for its random shifts.
//
// Algorithms draw randomness as hash(seed, index) so results are independent
// of thread schedule — a requirement for reproducible counter measurements.
#pragma once

#include <cmath>
#include <cstdint>

namespace wecc::parallel {

/// splitmix64 finalizer: high-quality 64-bit mix.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic hash of (seed, i) to a 64-bit value.
inline std::uint64_t hash2(std::uint64_t seed, std::uint64_t i) noexcept {
  return mix64(seed ^ mix64(i + 0x632be59bd9b4e019ULL));
}

/// Uniform double in [0, 1) from (seed, i).
inline double uniform01(std::uint64_t seed, std::uint64_t i) noexcept {
  return double(hash2(seed, i) >> 11) * 0x1.0p-53;
}

/// Bernoulli(p) from (seed, i).
inline bool bernoulli(std::uint64_t seed, std::uint64_t i, double p) noexcept {
  return uniform01(seed, i) < p;
}

/// Exponential(beta) (mean 1/beta) from (seed, i) — the random shift
/// delta_v of Miller–Peng–Xu.
inline double exponential(std::uint64_t seed, std::uint64_t i,
                          double beta) noexcept {
  double u = uniform01(seed, i);
  if (u >= 1.0) u = 0.9999999999999999;
  return -std::log1p(-u) / beta;
}

/// Small stateful generator for generators/tests (xorshift128+).
class Rng {
 public:
  explicit Rng(std::uint64_t seed)
      : s0_(mix64(seed)), s1_(mix64(seed + 1)) {}

  std::uint64_t next() noexcept {
    std::uint64_t x = s0_;
    const std::uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }
  std::uint64_t next_int(std::uint64_t bound) noexcept {
    return bound == 0 ? 0 : next() % bound;
  }
  double next01() noexcept { return double(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s0_, s1_;
};

}  // namespace wecc::parallel
