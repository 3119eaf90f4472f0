#include "cluster/refine.hpp"

#include <gtest/gtest.h>

#include "cluster/agglomerate.hpp"
#include "cluster/hierarchy.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace cim::cluster {
namespace {

std::vector<geo::Point> points_of(const tsp::Instance& inst) {
  return {inst.coords().begin(), inst.coords().end()};
}

void expect_partition(const std::vector<std::vector<std::uint32_t>>& groups,
                      std::size_t m, std::size_t cap) {
  std::vector<char> seen(m, 0);
  for (const auto& g : groups) {
    EXPECT_FALSE(g.empty());
    EXPECT_LE(g.size(), cap);
    for (const auto idx : g) {
      ASSERT_LT(idx, m);
      EXPECT_FALSE(seen[idx]);
      seen[idx] = 1;
    }
  }
  for (std::size_t i = 0; i < m; ++i) EXPECT_TRUE(seen[i]);
}

double mean_point_to_centroid(
    const std::vector<geo::Point>& pts,
    const std::vector<std::vector<std::uint32_t>>& groups) {
  util::RunningStats stats;
  for (const auto& g : groups) {
    std::vector<geo::Point> members;
    for (const auto p : g) members.push_back(pts[p]);
    const geo::Point c = geo::centroid(members);
    for (const auto p : g) stats.add(geo::euclidean(pts[p], c));
  }
  return stats.mean();
}

TEST(Refine, FixesObviousMisassignment) {
  // Two tight blobs, but one point of blob B starts in group A.
  std::vector<geo::Point> pts{{0, 0},    {1, 0},     {0, 1},
                              {100, 100}, {101, 100}, {100, 101}};
  const std::vector<std::uint32_t> weights(6, 1);
  std::vector<std::vector<std::uint32_t>> groups{{0, 1, 2, 3}, {4, 5}};
  const auto stats = refine_groups(pts, weights, groups, 4);
  EXPECT_GT(stats.moves, 0U);
  expect_partition(groups, 6, 4);
  // Point 3 must have migrated to the far blob's group.
  for (const auto& g : groups) {
    if (std::find(g.begin(), g.end(), 3U) != g.end()) {
      EXPECT_TRUE(std::find(g.begin(), g.end(), 4U) != g.end());
    }
  }
}

TEST(Refine, ImprovesCompactnessOnRandomInstances) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto inst = test::random_instance(400, 100 + seed);
    const auto pts = points_of(inst);
    const std::vector<std::uint32_t> weights(400, 1);
    auto groups = group_agglomerative(pts, weights, 200, 3);
    const double before = mean_point_to_centroid(pts, groups);
    refine_groups(pts, weights, groups, 3);
    const double after = mean_point_to_centroid(pts, groups);
    EXPECT_LE(after, before + 1e-9);
    expect_partition(groups, 400, 3);
  }
}

TEST(Refine, RespectsSizeCap) {
  const auto inst = test::random_instance(200, 7);
  const auto pts = points_of(inst);
  const std::vector<std::uint32_t> weights(200, 1);
  auto groups = group_agglomerative(pts, weights, 100, 2);
  refine_groups(pts, weights, groups, 2);
  expect_partition(groups, 200, 2);
}

TEST(Refine, NeverEmptiesAGroup) {
  // A singleton group far from everything must survive even though all
  // its mass "wants" to move.
  std::vector<geo::Point> pts{{0, 0}, {1, 1}, {2, 0}, {0.5, 0.5}};
  const std::vector<std::uint32_t> weights(4, 1);
  std::vector<std::vector<std::uint32_t>> groups{{0, 1, 2}, {3}};
  refine_groups(pts, weights, groups, 4);
  EXPECT_EQ(groups.size(), 2U);
  expect_partition(groups, 4, 4);
}

TEST(Refine, NoOpOnSingleGroup) {
  std::vector<geo::Point> pts{{0, 0}, {1, 1}};
  const std::vector<std::uint32_t> weights(2, 1);
  std::vector<std::vector<std::uint32_t>> groups{{0, 1}};
  const auto stats = refine_groups(pts, weights, groups, 4);
  EXPECT_EQ(stats.moves, 0U);
}

TEST(Refine, ConvergesWithinRounds) {
  const auto inst = test::random_instance(300, 9);
  const auto pts = points_of(inst);
  const std::vector<std::uint32_t> weights(300, 1);
  auto groups = group_agglomerative(pts, weights, 150, 3);
  const auto stats = refine_groups(pts, weights, groups, 3, 32);
  EXPECT_LE(stats.rounds, 32U);
  // A second refinement makes no further moves.
  const auto again = refine_groups(pts, weights, groups, 3, 32);
  EXPECT_EQ(again.moves, 0U);
}

TEST(Refine, HierarchyIntegrationStaysValid) {
  const auto inst = test::random_instance(500, 11);
  Options with;
  with.refine = true;
  Options without;
  without.refine = false;
  const Hierarchy a(inst, with);
  const Hierarchy b(inst, without);
  EXPECT_NO_THROW(a.validate());
  EXPECT_NO_THROW(b.validate());
  EXPECT_LE(a.max_cluster_size(), 3U);
}

}  // namespace
}  // namespace cim::cluster
