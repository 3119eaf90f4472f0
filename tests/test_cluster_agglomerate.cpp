#include "cluster/agglomerate.hpp"

#include <limits>
#include <numeric>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/error.hpp"

namespace cim::cluster {
namespace {

std::vector<geo::Point> points_of(const tsp::Instance& inst) {
  return {inst.coords().begin(), inst.coords().end()};
}

void expect_partition(const std::vector<std::vector<std::uint32_t>>& groups,
                      std::size_t m) {
  std::vector<char> seen(m, 0);
  for (const auto& g : groups) {
    EXPECT_FALSE(g.empty());
    for (const auto idx : g) {
      ASSERT_LT(idx, m);
      EXPECT_FALSE(seen[idx]) << "point " << idx << " grouped twice";
      seen[idx] = 1;
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_TRUE(seen[i]) << "point " << i << " ungrouped";
  }
}

TEST(GroupFixed, ExactSizesWithOneRaggedTail) {
  const auto pts = points_of(test::random_instance(103, 1));
  util::Rng rng(1);
  const auto groups = group_fixed(pts, 4, rng);
  expect_partition(groups, 103);
  std::size_t ragged = 0;
  for (const auto& g : groups) {
    if (g.size() != 4) {
      ++ragged;
      EXPECT_LT(g.size(), 4U);
    }
  }
  EXPECT_LE(ragged, 1U);
  EXPECT_EQ(groups.size(), (103 + 3) / 4);
}

TEST(GroupFixed, SizeOneIsSingletons) {
  const auto pts = points_of(test::random_instance(10, 2));
  util::Rng rng(2);
  const auto groups = group_fixed(pts, 1, rng);
  EXPECT_EQ(groups.size(), 10U);
  expect_partition(groups, 10);
}

TEST(GroupFixed, FewerPointsThanSizeGivesOneGroup) {
  const auto pts = points_of(test::random_instance(3, 3));
  util::Rng rng(3);
  const auto groups = group_fixed(pts, 5, rng);
  EXPECT_EQ(groups.size(), 1U);
  expect_partition(groups, 3);
}

TEST(GroupFixed, GroupsAreSpatiallyCoherent) {
  // Grouped points must be closer to each other than to the average pair:
  // compare mean intra-group distance against the global mean.
  const auto inst = test::random_instance(200, 4, 1000.0);
  const auto pts = points_of(inst);
  util::Rng rng(4);
  const auto groups = group_fixed(pts, 3, rng);
  double intra = 0.0;
  std::size_t intra_n = 0;
  for (const auto& g : groups) {
    for (std::size_t a = 0; a < g.size(); ++a) {
      for (std::size_t b = a + 1; b < g.size(); ++b) {
        intra += geo::euclidean(pts[g[a]], pts[g[b]]);
        ++intra_n;
      }
    }
  }
  intra /= static_cast<double>(intra_n);
  // Uniform points in a 1000² square: mean pair distance ≈ 521.
  EXPECT_LT(intra, 260.0);
}

TEST(GroupAgglomerative, ReachesTargetRespectingCap) {
  const auto pts = points_of(test::random_instance(300, 5));
  const std::vector<std::uint32_t> weights(300, 1);
  const auto groups = group_agglomerative(pts, weights, 150, 3);
  expect_partition(groups, 300);
  EXPECT_LE(groups.size(), 160U);  // near target (stalls allowed but rare)
  for (const auto& g : groups) {
    EXPECT_LE(g.size(), 3U);
  }
}

TEST(GroupAgglomerative, UnlimitedCap) {
  const auto pts = points_of(test::random_instance(128, 6));
  const std::vector<std::uint32_t> weights(128, 1);
  const auto groups = group_agglomerative(
      pts, weights, 64, std::numeric_limits<std::size_t>::max());
  expect_partition(groups, 128);
  EXPECT_EQ(groups.size(), 64U);
}

TEST(GroupAgglomerative, TargetAboveCountIsIdentity) {
  const auto pts = points_of(test::random_instance(10, 7));
  const std::vector<std::uint32_t> weights(10, 1);
  const auto groups = group_agglomerative(pts, weights, 20, 4);
  EXPECT_EQ(groups.size(), 10U);
}

TEST(GroupAgglomerative, MergesNearestPairsFirst) {
  // Two tight pairs and two isolated points: with target 4 the pairs
  // must merge, the isolated points must stay single.
  const std::vector<geo::Point> pts{{0, 0},     {1, 0},      // pair A
                                    {100, 100}, {101, 100},  // pair B
                                    {500, 0},   {0, 500}};   // isolated
  const std::vector<std::uint32_t> weights(6, 1);
  const auto groups = group_agglomerative(pts, weights, 4, 2);
  expect_partition(groups, 6);
  ASSERT_EQ(groups.size(), 4U);
  std::size_t pairs = 0;
  for (const auto& g : groups) {
    if (g.size() == 2) {
      ++pairs;
      const double d = geo::euclidean(pts[g[0]], pts[g[1]]);
      EXPECT_LT(d, 2.0);
    }
  }
  EXPECT_EQ(pairs, 2U);
}

TEST(GroupAgglomerative, InvalidArgsThrow) {
  const std::vector<geo::Point> pts{{0, 0}, {1, 1}};
  const std::vector<std::uint32_t> weights(2, 1);
  EXPECT_THROW(group_agglomerative(pts, weights, 0, 2), ConfigError);
  EXPECT_THROW(group_agglomerative(pts, weights, 1, 1), ConfigError);
}

}  // namespace
}  // namespace cim::cluster
