#include "heuristics/or_opt.hpp"

#include <gtest/gtest.h>

#include "heuristics/construct.hpp"
#include "heuristics/two_opt.hpp"
#include "test_helpers.hpp"

namespace cim::heuristics {
namespace {

TEST(OrOpt, NeverWorsensAndStaysValid) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto inst = test::random_instance(150, 70 + seed);
    auto tour = random_tour(inst, seed);
    const long long before = tour.length(inst);
    const auto result = or_opt(inst, tour);
    EXPECT_LE(result.final_length, before);
    EXPECT_EQ(result.final_length, tour.length(inst));
    EXPECT_TRUE(tour.is_valid(150));
  }
}

TEST(OrOpt, ImprovesTwoOptLocalOptima) {
  // Or-opt moves are outside the 2-opt neighbourhood; over several seeds
  // it should find at least one further improvement.
  std::size_t improved = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto inst = test::random_instance(200, 80 + seed);
    auto tour = random_tour(inst, seed);
    two_opt(inst, tour);
    const long long after_two_opt = tour.length(inst);
    or_opt(inst, tour);
    if (tour.length(inst) < after_two_opt) ++improved;
  }
  EXPECT_GE(improved, 1U);
}

TEST(OrOpt, RelocatesObviousSegment) {
  // A point dropped far from its tour position: or-opt must pull it back.
  //
  //   0 -- 1 -- X -- 2 -- 3   with X spatially between 3 and 0.
  const tsp::Instance inst("relocate", geo::Metric::kEuc2D,
                           {{0, 0},      // 0
                            {100, 0},    // 1
                            {5, 80},     // 2 (the stray, near 0-4 edge)
                            {100, 100},  // 3
                            {0, 100}});  // 4
  tsp::Tour tour({0, 1, 2, 3, 4});  // stray city 2 visited mid-right side
  const long long before = tour.length(inst);
  const auto result = or_opt(inst, tour);
  EXPECT_GT(result.moves, 0U);
  EXPECT_LT(tour.length(inst), before);
}

TEST(OrOpt, TinyInstancesNoOp) {
  for (std::size_t n : {1U, 2U, 3U, 4U}) {
    const auto inst = test::random_instance(n, n + 90);
    auto tour = tsp::Tour::identity(n);
    const auto result = or_opt(inst, tour);
    EXPECT_EQ(result.moves, 0U);
    EXPECT_TRUE(tour.is_valid(n));
  }
}

TEST(OrOpt, SegmentLengthCap) {
  const auto inst = test::random_instance(100, 95);
  auto tour = random_tour(inst, 1);
  OrOptOptions opt;
  opt.max_segment = 1;  // single-city relocation only
  const auto result = or_opt(inst, tour, opt);
  EXPECT_LE(result.final_length, result.initial_length);
  EXPECT_TRUE(tour.is_valid(100));
}

TEST(OrOpt, ConvergesToFixedPointUnderRepetition) {
  const auto inst = test::random_instance(120, 97);
  auto tour = random_tour(inst, 2);
  long long prev = tour.length(inst);
  bool fixed_point = false;
  for (int run = 0; run < 6; ++run) {
    const auto result = or_opt(inst, tour);
    EXPECT_LE(result.final_length, prev);
    if (result.moves == 0) {
      fixed_point = true;
      break;
    }
    prev = result.final_length;
  }
  EXPECT_TRUE(fixed_point);
}

}  // namespace
}  // namespace cim::heuristics
