// QUBO↔Ising conversion tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ising/qubo.hpp"
#include "util/random.hpp"

namespace cim {
namespace {

using ising::IsingImage;
using ising::Qubo;
using ising::Spin;

TEST(Qubo, CoefficientsSymmetrised) {
  Qubo q(4);
  q.add(2, 1, 3.0);
  q.add(1, 2, 1.0);
  EXPECT_DOUBLE_EQ(q.coefficient(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(q.coefficient(2, 1), 4.0);
  q.add(3, 3, -2.0);
  EXPECT_DOUBLE_EQ(q.coefficient(3, 3), -2.0);
  EXPECT_DOUBLE_EQ(q.coefficient(0, 3), 0.0);
}

TEST(Qubo, ValueByHand) {
  // f(x) = 2x0 − 3x1 + 4x0x1.
  Qubo q(2);
  q.add(0, 0, 2.0);
  q.add(1, 1, -3.0);
  q.add(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(q.value({0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(q.value({1, 0}), 2.0);
  EXPECT_DOUBLE_EQ(q.value({0, 1}), -3.0);
  EXPECT_DOUBLE_EQ(q.value({1, 1}), 3.0);
}

TEST(Qubo, IsingConversionIsExactOnAllAssignments) {
  // Random QUBO: the Ising image must reproduce f(x) for every x.
  util::Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    constexpr std::size_t kN = 8;
    Qubo q(kN);
    for (ising::SpinIndex i = 0; i < kN; ++i) {
      for (ising::SpinIndex j = i; j < kN; ++j) {
        if (rng.chance(0.6)) q.add(i, j, rng.uniform(-3.0, 3.0));
      }
    }
    const IsingImage image = ising::to_ising(q);
    for (std::uint32_t mask = 0; mask < (1U << kN); ++mask) {
      std::vector<std::uint8_t> x(kN);
      for (std::size_t v = 0; v < kN; ++v) x[v] = (mask >> v) & 1U;
      const auto spins = IsingImage::spins_from_binary(x);
      EXPECT_NEAR(q.value(x),
                  image.offset + image.model.hamiltonian(spins), 1e-9)
          << "mask " << mask;
    }
  }
}

TEST(Qubo, RoundTripBinarySpins) {
  const std::vector<std::uint8_t> x{1, 0, 1, 1, 0};
  const auto spins = IsingImage::spins_from_binary(x);
  EXPECT_EQ(spins[0], 1);
  EXPECT_EQ(spins[1], -1);
  EXPECT_EQ(IsingImage::binary_from_spins(spins), x);
}

TEST(Qubo, MinimisingIsingMinimisesQubo) {
  // Exhaustive check: argmin over σ of (offset + H) equals argmin of f.
  Qubo q(6);
  util::Rng rng(2);
  for (ising::SpinIndex i = 0; i < 6; ++i) {
    for (ising::SpinIndex j = i; j < 6; ++j) {
      q.add(i, j, rng.uniform(-2.0, 2.0));
    }
  }
  const IsingImage image = ising::to_ising(q);
  double best_f = 1e300;
  double best_h = 1e300;
  for (std::uint32_t mask = 0; mask < 64; ++mask) {
    std::vector<std::uint8_t> x(6);
    for (std::size_t v = 0; v < 6; ++v) x[v] = (mask >> v) & 1U;
    best_f = std::min(best_f, q.value(x));
    best_h = std::min(best_h,
                      image.offset + image.model.hamiltonian(
                                         IsingImage::spins_from_binary(x)));
  }
  EXPECT_NEAR(best_f, best_h, 1e-9);
}

}  // namespace
}  // namespace cim
