#include "heuristics/two_opt.hpp"

#include <gtest/gtest.h>

#include "heuristics/construct.hpp"
#include "heuristics/exact.hpp"
#include "test_helpers.hpp"

namespace cim::heuristics {
namespace {

TEST(TwoOpt, NeverWorsens) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto inst = test::random_instance(150, 10 + seed);
    auto tour = random_tour(inst, seed);
    const long long before = tour.length(inst);
    const auto result = two_opt(inst, tour);
    EXPECT_EQ(result.initial_length, before);
    EXPECT_LE(result.final_length, before);
    EXPECT_EQ(result.final_length, tour.length(inst));
    EXPECT_TRUE(tour.is_valid(150));
  }
}

TEST(TwoOpt, SubstantialImprovementFromRandom) {
  const auto inst = test::random_instance(400, 20);
  auto tour = random_tour(inst, 1);
  const long long before = tour.length(inst);
  two_opt(inst, tour);
  // Random tours on uniform instances are several times longer than
  // 2-opt local optima.
  EXPECT_LT(tour.length(inst), before / 2);
}

TEST(TwoOpt, CloseToOptimalOnSmall) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto inst = test::random_instance(10, 30 + seed);
    auto tour = nearest_neighbor(inst);
    two_opt(inst, tour, {.neighbor_k = 9});
    const auto optimal = held_karp(inst);
    EXPECT_LE(tour.length(inst), optimal.length(inst) * 11 / 10)
        << "seed " << seed;
  }
}

TEST(TwoOpt, FindsCircleOptimum) {
  const auto inst = test::circle_instance(24);
  auto tour = random_tour(inst, 3);
  two_opt(inst, tour, {.neighbor_k = 12, .max_passes = 256});
  // 2-opt uncrosses everything on convex position → optimal.
  EXPECT_EQ(tour.length(inst), test::identity_length(inst));
}

TEST(TwoOpt, TinyInstancesAreNoOps) {
  for (std::size_t n : {1U, 2U, 3U}) {
    const auto inst = test::random_instance(n, n + 50);
    auto tour = tsp::Tour::identity(n);
    const auto result = two_opt(inst, tour);
    EXPECT_EQ(result.improvements, 0U);
    EXPECT_TRUE(tour.is_valid(n));
  }
}

TEST(TwoOpt, PrebuiltNeighborsGiveSameResult) {
  const auto inst = test::random_instance(120, 40);
  const tsp::NeighborLists nbrs(inst, 10);
  auto a = random_tour(inst, 2);
  auto b = a;
  two_opt(inst, a, {.neighbor_k = 10});
  TwoOptOptions opt;
  opt.neighbors = &nbrs;
  two_opt(inst, b, opt);
  EXPECT_EQ(a.length(inst), b.length(inst));
}

TEST(TwoOpt, MaxPassesRespected) {
  const auto inst = test::random_instance(300, 50);
  auto tour = random_tour(inst, 4);
  TwoOptOptions opt;
  opt.max_passes = 1;
  const auto result = two_opt(inst, tour, opt);
  EXPECT_EQ(result.passes, 1U);
}

TEST(TwoOpt, ConvergesToFixedPointUnderRepetition) {
  // Don't-look bits make a single run an approximation of the full 2-opt
  // neighbourhood; repeated runs must reach a true fixed point quickly
  // and never worsen.
  const auto inst = test::random_instance(100, 60);
  auto tour = random_tour(inst, 5);
  long long prev = tour.length(inst);
  bool fixed_point = false;
  for (int run = 0; run < 6; ++run) {
    const auto result = two_opt(inst, tour);
    EXPECT_LE(result.final_length, prev);
    if (result.improvements == 0) {
      fixed_point = true;
      break;
    }
    prev = result.final_length;
  }
  EXPECT_TRUE(fixed_point);
}

}  // namespace
}  // namespace cim::heuristics
