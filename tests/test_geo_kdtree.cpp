#include "geo/kdtree.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tsp/generator.hpp"
#include "util/random.hpp"

namespace cim::geo {
namespace {

std::vector<Point> random_points(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Point> pts(n);
  for (auto& p : pts) {
    p = {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
  }
  return pts;
}

std::size_t brute_nearest(const std::vector<Point>& pts, Point q,
                          const std::vector<char>& active,
                          std::size_t exclude) {
  std::size_t best = KdTree::npos;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (!active[i] || i == exclude) continue;
    const double d = squared_distance(pts[i], q);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

class KdTreeSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KdTreeSizes, NearestMatchesBruteForce) {
  const auto pts = random_points(GetParam(), GetParam() * 7 + 1);
  const KdTree tree(pts);
  const std::vector<char> active(pts.size(), 1);
  util::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const Point q{rng.uniform(-100.0, 1100.0), rng.uniform(-100.0, 1100.0)};
    const std::size_t got = tree.nearest(q);
    const std::size_t want = brute_nearest(pts, q, active, KdTree::npos);
    ASSERT_NE(got, KdTree::npos);
    // Ties are possible; compare distances, not indices.
    EXPECT_DOUBLE_EQ(squared_distance(pts[got], q),
                     squared_distance(pts[want], q));
  }
}

TEST_P(KdTreeSizes, NearestKSortedAndCorrect) {
  const auto pts = random_points(GetParam(), GetParam() * 13 + 3);
  const KdTree tree(pts);
  util::Rng rng(7);
  const std::size_t k = std::min<std::size_t>(8, pts.size());
  for (int trial = 0; trial < 20; ++trial) {
    const Point q{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
    const auto got = tree.nearest_k(q, k);
    ASSERT_EQ(got.size(), k);
    // Ascending by distance.
    for (std::size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(squared_distance(pts[got[i - 1]], q),
                squared_distance(pts[got[i]], q));
    }
    // k-th distance matches brute force k-th.
    std::vector<double> dists;
    for (const auto& p : pts) dists.push_back(squared_distance(p, q));
    std::sort(dists.begin(), dists.end());
    EXPECT_DOUBLE_EQ(squared_distance(pts[got.back()], q), dists[k - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KdTreeSizes,
                         ::testing::Values<std::size_t>(1, 2, 15, 16, 17, 100,
                                                        1000));

TEST(KdTree, ExcludeSkipsPoint) {
  const auto pts = random_points(50, 5);
  const KdTree tree(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const std::size_t nn = tree.nearest(pts[i], i);
    EXPECT_NE(nn, i);
    EXPECT_NE(nn, KdTree::npos);
  }
}

TEST(KdTree, SelfIsNearestWithoutExclude) {
  const auto pts = random_points(50, 6);
  const KdTree tree(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const std::size_t nn = tree.nearest(pts[i]);
    EXPECT_DOUBLE_EQ(squared_distance(pts[nn], pts[i]), 0.0);
  }
}

TEST(KdTree, SoftDelete) {
  const auto pts = random_points(100, 8);
  KdTree tree(pts);
  std::vector<char> active(pts.size(), 1);
  util::Rng rng(1);
  for (int round = 0; round < 60; ++round) {
    const std::size_t kill = rng.below(pts.size());
    tree.set_active(kill, false);
    active[kill] = 0;
    const Point q{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
    const std::size_t got = tree.nearest(q);
    const std::size_t want = brute_nearest(pts, q, active, KdTree::npos);
    if (want == KdTree::npos) {
      EXPECT_EQ(got, KdTree::npos);
    } else {
      ASSERT_NE(got, KdTree::npos);
      EXPECT_TRUE(active[got]);
      EXPECT_DOUBLE_EQ(squared_distance(pts[got], q),
                       squared_distance(pts[want], q));
    }
  }
  EXPECT_EQ(tree.active_count(),
            static_cast<std::size_t>(
                std::count(active.begin(), active.end(), 1)));
}

TEST(KdTree, ReactivateRestores) {
  const auto pts = random_points(10, 9);
  KdTree tree(pts);
  tree.set_active(3, false);
  EXPECT_FALSE(tree.is_active(3));
  tree.set_active(3, true);
  EXPECT_TRUE(tree.is_active(3));
  EXPECT_EQ(tree.active_count(), 10U);
  // Idempotent.
  tree.set_active(3, true);
  EXPECT_EQ(tree.active_count(), 10U);
}

TEST(KdTree, AllDeletedReturnsNpos) {
  const auto pts = random_points(5, 10);
  KdTree tree(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) tree.set_active(i, false);
  EXPECT_EQ(tree.nearest({0, 0}), KdTree::npos);
  EXPECT_TRUE(tree.nearest_k({0, 0}, 3).empty());
}

TEST(KdTree, WithinRadius) {
  std::vector<Point> pts{{0, 0}, {1, 0}, {5, 0}, {0, 2}, {10, 10}};
  const KdTree tree(pts);
  auto hits = tree.within_radius({0, 0}, 2.5);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(KdTree, EmptyTree) {
  const KdTree tree(std::vector<Point>{});
  EXPECT_EQ(tree.nearest({0, 0}), KdTree::npos);
  EXPECT_TRUE(tree.within_radius({0, 0}, 10.0).empty());
}

TEST(KdTree, DuplicatePoints) {
  std::vector<Point> pts(20, Point{5, 5});
  const KdTree tree(pts);
  const auto nn = tree.nearest_k({5, 5}, 20);
  EXPECT_EQ(nn.size(), 20U);
}

TEST(KdTree, NearestKMatchesBruteForce) {
  // An integer grid makes equal distances the rule, not the exception:
  // the k results must be exactly the k smallest brute-force distances in
  // ascending order, with `exclude` and soft-deleted points left out.
  std::vector<Point> pts;
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) {
      pts.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  KdTree tree(pts);
  std::vector<char> active(pts.size(), 1);
  for (std::size_t i = 0; i < pts.size(); i += 7) {
    tree.set_active(i, false);
    active[i] = 0;
  }
  util::Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t self = rng.below(pts.size());
    const Point q = trial % 2 == 0
                        ? pts[self]
                        : Point{static_cast<double>(rng.below(24)) * 0.5,
                                static_cast<double>(rng.below(24)) * 0.5};
    const std::size_t exclude = trial % 3 == 0 ? KdTree::npos : self;
    const std::size_t k = 1 + rng.below(12);
    std::vector<double> want;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (active[i] && i != exclude) {
        want.push_back(squared_distance(pts[i], q));
      }
    }
    std::sort(want.begin(), want.end());
    want.resize(std::min(k, want.size()));

    const auto got = tree.nearest_k(q, k, exclude);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t r = 0; r < got.size(); ++r) {
      EXPECT_TRUE(active[got[r]]) << got[r];
      EXPECT_NE(got[r], exclude);
      EXPECT_EQ(squared_distance(pts[got[r]], q), want[r]) << "rank " << r;
    }
    std::vector<std::size_t> unique(got);
    std::sort(unique.begin(), unique.end());
    EXPECT_EQ(std::adjacent_find(unique.begin(), unique.end()), unique.end());
  }
}

TEST(KdTree, BufferOverloadMatchesReturningOverload) {
  // A drill grid puts many cities at equal distances, so any difference
  // in traversal or heap order between the overloads would show as a
  // different tie order. One buffer serves every query with varying k and
  // exclude: stale entries from a longer earlier result must not leak.
  const tsp::Instance grid = tsp::generate_drill_grid(600, 5);
  const KdTree tree(grid.coords());
  std::vector<std::size_t> buffer;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Point q = grid.coords()[i];
    for (const std::size_t k : {std::size_t{17}, std::size_t{1},
                                std::size_t{8}, std::size_t{0}}) {
      const std::size_t exclude = i % 2 == 0 ? i : KdTree::npos;
      tree.nearest_k(q, k, buffer, exclude);
      EXPECT_EQ(buffer, tree.nearest_k(q, k, exclude))
          << "city " << i << " k " << k;
    }
  }
}

}  // namespace
}  // namespace cim::geo
