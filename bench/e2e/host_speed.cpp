#include "host_speed.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <utility>

namespace cim::bench::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Seconds each kernel takes on the reference host: medians of 2000
/// back-to-back gauges, rounded. In order: alu, chase, two_opt, small and
/// large Metropolis.
constexpr std::array<double, 5> kNominal = {1.2e-3, 1.6e-3, 1.0e-3, 2.1e-3,
                                            2.9e-3};

constexpr std::size_t kChaseEntries = 64 * 1024;  // 256 KB of uint32
constexpr std::size_t kCities = 250;
constexpr std::size_t kSmallSpins = 64 * 1024;   // 192 KB with couplings
constexpr std::size_t kLargeSpins = 512 * 1024;  // 1.5 MB with couplings

/// Reads `data` once, untimed, so that a kernel starts on warm caches
/// whatever the solver call before it left there.
template <class T>
std::uint64_t touch(const std::vector<T>& data) {
  std::uint64_t sum = 0;
  for (const T v : data) sum += static_cast<std::uint64_t>(v);
  return sum;
}

void make_ring(std::size_t n, std::uint64_t seed,
               std::vector<std::int8_t>& initial,
               std::vector<std::int16_t>& couplings) {
  initial.resize(n);
  couplings.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    initial[i] = (xorshift(seed) & 1) != 0 ? 1 : -1;
    couplings[i] = static_cast<std::int16_t>(xorshift(seed) % 64) - 32;
  }
}

}  // namespace

HostSpeed::HostSpeed() {
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  std::vector<std::uint32_t> order(kChaseEntries);
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[xorshift(seed) % (i + 1)]);
  }
  next_.resize(kChaseEntries);
  for (std::size_t i = 0; i < order.size(); ++i) {
    next_[order[i]] = order[(i + 1) % order.size()];
  }
  for (std::size_t i = 0; i < kCities; ++i) {
    xs_.push_back(static_cast<float>(xorshift(seed) % 10000));
    ys_.push_back(static_cast<float>(xorshift(seed) % 10000));
  }
  make_ring(kSmallSpins, seed, small_initial_, small_couplings_);
  make_ring(kLargeSpins, seed + 1, large_initial_, large_couplings_);
}

double HostSpeed::slowdown() {
  const std::array<double, 5> seconds = {
      alu(), chase(), two_opt(),
      metropolis(small_spins_, small_initial_, small_couplings_, 200000),
      metropolis(large_spins_, large_initial_, large_couplings_, 150000)};
  double log_sum = 0.0;
  for (std::size_t k = 0; k < seconds.size(); ++k) {
    log_sum += std::log(seconds[k] / kNominal[k]);
  }
  return std::exp(log_sum / static_cast<double>(seconds.size()));
}

/// Four independent xorshift chains: integer throughput.
double HostSpeed::alu() {
  const Clock::time_point start = Clock::now();
  std::uint64_t a = 1;
  std::uint64_t b = 2;
  std::uint64_t c = 3;
  std::uint64_t d = 4;
  for (int i = 0; i < 400000; ++i) {
    xorshift(a);
    xorshift(b);
    xorshift(c);
    xorshift(d);
  }
  sink_ += a ^ b ^ c ^ d;
  return since(start);
}

/// Dependent loads around one random cycle: L2 load-to-use latency.
double HostSpeed::chase() {
  sink_ += touch(next_);
  const Clock::time_point start = Clock::now();
  std::uint32_t p = 0;
  for (int i = 0; i < 300000; ++i) p = next_[p];
  sink_ += p;
  return since(start);
}

/// 2-opt to a local optimum from the identity tour: branchy float code
/// whose work is the same on every run.
double HostSpeed::two_opt() {
  tour_.resize(kCities);
  for (std::size_t i = 0; i < kCities; ++i) tour_[i] = static_cast<int>(i);
  const auto dist = [&](int a, int b) {
    const float dx = xs_[static_cast<std::size_t>(a)] -
                     xs_[static_cast<std::size_t>(b)];
    const float dy = ys_[static_cast<std::size_t>(a)] -
                     ys_[static_cast<std::size_t>(b)];
    return std::sqrt(dx * dx + dy * dy);
  };
  const Clock::time_point start = Clock::now();
  std::uint64_t moves = 0;
  for (bool improved = true; improved;) {
    improved = false;
    for (std::size_t i = 0; i + 1 < kCities; ++i) {
      for (std::size_t j = i + 2; j < kCities; ++j) {
        const int a = tour_[i];
        const int b = tour_[i + 1];
        const int c = tour_[j];
        const int e = tour_[(j + 1) % kCities];
        if (dist(a, c) + dist(b, e) < dist(a, b) + dist(c, e) - 1e-3F) {
          std::reverse(tour_.begin() + static_cast<std::ptrdiff_t>(i + 1),
                       tour_.begin() + static_cast<std::ptrdiff_t>(j + 1));
          improved = true;
          ++moves;
        }
      }
    }
  }
  sink_ += moves;
  return since(start);
}

/// Metropolis single-spin flips at random sites of a ring with random
/// couplings, from the same start every time: unpredictable branches over
/// a working set of the ring's size.
double HostSpeed::metropolis(std::vector<std::int8_t>& spins,
                             const std::vector<std::int8_t>& initial,
                             const std::vector<std::int16_t>& couplings,
                             int steps) {
  spins = initial;
  sink_ += touch(couplings);
  const std::size_t n = spins.size();
  std::uint64_t rng = 4242;
  const Clock::time_point start = Clock::now();
  long long energy = 0;
  for (int k = 0; k < steps; ++k) {
    const std::size_t i = xorshift(rng) % n;
    const std::size_t left = i == 0 ? n - 1 : i - 1;
    const std::size_t right = i + 1 == n ? 0 : i + 1;
    const int delta = 2 * spins[i] *
                      (couplings[left] * spins[left] +
                       couplings[i] * spins[right]);
    if (delta <= 0 || static_cast<int>(xorshift(rng) & 63) < 32 - delta) {
      spins[i] = static_cast<std::int8_t>(-spins[i]);
      energy += delta;
    }
  }
  sink_ += static_cast<std::uint64_t>(energy);
  return since(start);
}

}  // namespace cim::bench::e2e
