// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components of the library (instance generators, annealers,
// Monte-Carlo device models) draw from cim::util::Rng, a xoshiro256++
// generator seeded through splitmix64. The same seed always yields the same
// experiment on every platform — std::mt19937 with std:: distributions is
// avoided because distribution implementations differ across standard
// libraries.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace cim::util {

/// splitmix64: used for seeding and as a cheap stateless hash.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mixes two 64-bit values into one; used to derive per-component seeds.
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return splitmix64(s);
}

/// Seed of the `stream`-th independent parallel RNG stream derived from
/// `base`. Unlike Rng::fork() this is stateless: the mapping depends only
/// on (base, stream), so components that are updated concurrently (e.g.
/// independent restarts on a pool) get the same stream regardless of
/// worker count or execution order.
constexpr std::uint64_t stream_seed(std::uint64_t base, std::uint64_t stream) {
  return hash_combine(base, hash_combine(0x5EED57EEAA11ULL, stream));
}

/// xoshiro256++ — fast, high-quality 64-bit PRNG with 256-bit state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Unbiased uniform integer in [0, n) using Lemire's method.
  std::uint64_t below(std::uint64_t n) {
    CIM_ASSERT(n > 0);
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    CIM_ASSERT(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) { return uniform() < p; }

  /// Standard normal via the polar Box–Muller method (cached spare).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = below(i);
      std::swap(items[i - 1], items[j]);
    }
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    shuffle(std::span<T>(items));
  }

  /// Picks a uniformly random element.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    CIM_ASSERT(!items.empty());
    return items[below(items.size())];
  }

  /// Derives an independent child generator (for parallel components).
  Rng fork() { return Rng(hash_combine((*this)(), (*this)())); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool has_spare_ = false;
  double spare_ = 0.0;

  friend class RngCheckpoint;
};

/// Returns a permutation of [0, n) drawn uniformly at random.
std::vector<std::uint32_t> random_permutation(std::size_t n, Rng& rng);

}  // namespace cim::util
