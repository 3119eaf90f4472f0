#include "cluster/hierarchy.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "test_helpers.hpp"
#include "tsp/generator.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace cim::cluster {
namespace {

// gtest prints a parameter without a printer as its raw bytes, and the
// discovered test name embeds that dump. The explicit zero `pad` fills the
// gap after the 4-byte enum, so the name carries no uninitialised bytes and
// stays the same from build to build.
struct Case {
  Case(Strategy s, std::size_t p_, std::size_t n_)
      : strategy(s), p(p_), n(n_) {}

  Strategy strategy;
  std::uint32_t pad = 0;
  std::size_t p;
  std::size_t n;
};
static_assert(sizeof(Strategy) == sizeof(std::uint32_t));
static_assert(sizeof(Case) == 24);

class HierarchyCases : public ::testing::TestWithParam<Case> {};

TEST_P(HierarchyCases, PartitionIsValidAtEveryLevel) {
  const auto [strategy, pad, p, n] = GetParam();
  const auto inst = test::random_instance(n, n * 7 + p);
  Options options;
  options.strategy = strategy;
  options.p = p;
  const Hierarchy h(inst, options);
  EXPECT_NO_THROW(h.validate());
  EXPECT_GE(h.depth(), 1U);
  EXPECT_LE(h.top().clusters.size(), options.top_size);
}

TEST_P(HierarchyCases, SizeConstraintsHold) {
  const auto [strategy, pad, p, n] = GetParam();
  const auto inst = test::random_instance(n, n * 11 + p);
  Options options;
  options.strategy = strategy;
  options.p = p;
  const Hierarchy h(inst, options);
  if (strategy == Strategy::kFixed) {
    // All but at most one cluster per level has exactly p members.
    for (std::size_t k = 0; k < h.depth(); ++k) {
      std::size_t ragged = 0;
      for (const Cluster& c : h.level(k).clusters) {
        if (c.members.size() != p) ++ragged;
      }
      if (h.level(k).clusters.size() > 1 &&
          h.level(k).clusters.size() * p >= p) {
        EXPECT_LE(ragged, 1U + (k > 0 ? 1U : 0U));
      }
    }
  }
  if (strategy == Strategy::kSemiFlexible) {
    EXPECT_LE(h.max_cluster_size(), p);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, HierarchyCases,
    ::testing::Values(Case{Strategy::kFixed, 2, 200},
                      Case{Strategy::kFixed, 3, 333},
                      Case{Strategy::kFixed, 4, 500},
                      Case{Strategy::kSemiFlexible, 2, 200},
                      Case{Strategy::kSemiFlexible, 3, 500},
                      Case{Strategy::kSemiFlexible, 4, 1000},
                      Case{Strategy::kUnlimited, 2, 300}));

TEST(Hierarchy, SemiFlexMeanSizeNearTarget) {
  const auto inst = test::random_instance(1200, 17);
  Options options;
  options.strategy = Strategy::kSemiFlexible;
  options.p = 3;
  const Hierarchy h(inst, options);
  // Mean (1+p)/2 = 2 with some tolerance (stalls, top level).
  EXPECT_GT(h.mean_cluster_size(), 1.5);
  EXPECT_LE(h.mean_cluster_size(), 3.0);
}

TEST(Hierarchy, DepthGrowsLogarithmically) {
  Options options;
  options.strategy = Strategy::kSemiFlexible;
  options.p = 3;
  const Hierarchy small(test::random_instance(100, 1), options);
  const Hierarchy large(test::random_instance(2000, 2), options);
  EXPECT_GT(large.depth(), small.depth());
  EXPECT_LE(large.depth(), 16U);
}

TEST(Hierarchy, TinyInstanceSingletons) {
  const auto inst = test::random_instance(3, 3);
  Options options;
  options.top_size = 4;
  const Hierarchy h(inst, options);
  EXPECT_EQ(h.depth(), 1U);
  EXPECT_EQ(h.level(0).clusters.size(), 3U);
  EXPECT_NO_THROW(h.validate());
}

TEST(Hierarchy, CitiesOfFlattensCorrectCounts) {
  const auto inst = test::random_instance(400, 23);
  Options options;
  options.strategy = Strategy::kSemiFlexible;
  options.p = 4;
  const Hierarchy h(inst, options);
  for (std::size_t k = 0; k < h.depth(); ++k) {
    std::size_t total = 0;
    for (std::uint32_t c = 0; c < h.level(k).clusters.size(); ++c) {
      const auto cities = h.cities_of(k, c);
      EXPECT_EQ(cities.size(), h.level(k).clusters[c].city_count);
      total += cities.size();
    }
    EXPECT_EQ(total, 400U);
  }
}

TEST(Hierarchy, CentroidInsideBoundingBox) {
  const auto inst = test::random_instance(300, 29);
  Options options;
  const Hierarchy h(inst, options);
  const auto box = geo::bounding_box(inst.coords());
  for (std::size_t k = 0; k < h.depth(); ++k) {
    for (const Cluster& c : h.level(k).clusters) {
      EXPECT_GE(c.centroid.x, box.lo.x - 1e-9);
      EXPECT_LE(c.centroid.x, box.hi.x + 1e-9);
      EXPECT_GE(c.centroid.y, box.lo.y - 1e-9);
      EXPECT_LE(c.centroid.y, box.hi.y + 1e-9);
    }
  }
}

TEST(Hierarchy, DeterministicForSeed) {
  const auto inst = test::random_instance(250, 31);
  Options options;
  options.seed = 5;
  const Hierarchy a(inst, options);
  const Hierarchy b(inst, options);
  ASSERT_EQ(a.depth(), b.depth());
  for (std::size_t k = 0; k < a.depth(); ++k) {
    ASSERT_EQ(a.level(k).clusters.size(), b.level(k).clusters.size());
    for (std::size_t c = 0; c < a.level(k).clusters.size(); ++c) {
      EXPECT_EQ(a.level(k).clusters[c].members,
                b.level(k).clusters[c].members);
    }
  }
}

/// Chains every level's cluster count, member lists, city counts and
/// centroid bits into one 64-bit digest.
std::uint64_t hierarchy_digest(const Hierarchy& h) {
  std::uint64_t digest = h.depth();
  for (std::size_t k = 0; k < h.depth(); ++k) {
    digest = util::hash_combine(digest, h.level(k).clusters.size());
    for (const Cluster& c : h.level(k).clusters) {
      digest = util::hash_combine(digest, c.members.size());
      for (const std::uint32_t m : c.members) {
        digest = util::hash_combine(digest, m);
      }
      digest = util::hash_combine(digest, c.city_count);
      digest = util::hash_combine(
          digest, std::bit_cast<std::uint64_t>(c.centroid.x));
      digest = util::hash_combine(
          digest, std::bit_cast<std::uint64_t>(c.centroid.y));
    }
  }
  return digest;
}

TEST(Hierarchy, BuildDigestIsPinned) {
  // The partner and refinement queries may run on the shared pool; the
  // hierarchy they produce must not change by a single member or
  // centroid bit. A tie-heavy drill grid and a clustered instance, large
  // enough that every query loop splits into pool tasks, under each
  // strategy. The digests were taken from the serial builder, before the
  // queries moved onto the pool.
  struct Pin {
    const char* name;
    const tsp::Instance* instance;
    Strategy strategy;
    std::size_t p;
    std::uint64_t digest;
  };
  const tsp::Instance grid = tsp::generate_drill_grid(1500, 11);
  const tsp::Instance clustered = tsp::generate_clustered(1200, 8, 13);
  const Pin pins[] = {
      {"grid semi p3", &grid, Strategy::kSemiFlexible, 3,
       0xEA4D828B9C4F2262ULL},
      {"grid semi p8", &grid, Strategy::kSemiFlexible, 8,
       0x744C79281DC123B7ULL},
      {"grid unlimited", &grid, Strategy::kUnlimited, 3,
       0x4D9811B940745F24ULL},
      {"grid fixed p4", &grid, Strategy::kFixed, 4,
       0xEA0681C9AC2149CAULL},
      {"clustered semi p3", &clustered, Strategy::kSemiFlexible, 3,
       0x02C123D42CEF777FULL},
      {"clustered semi p8", &clustered, Strategy::kSemiFlexible, 8,
       0x3EEC93D726422945ULL},
      {"clustered unlimited", &clustered, Strategy::kUnlimited, 3,
       0x5ABAF81FB1B10178ULL},
      {"clustered fixed p4", &clustered, Strategy::kFixed, 4,
       0x0E314C391CC4F5F9ULL},
  };
  for (const Pin& pin : pins) {
    Options options;
    options.strategy = pin.strategy;
    options.p = pin.p;
    const std::uint64_t digest =
        hierarchy_digest(Hierarchy(*pin.instance, options));
    EXPECT_EQ(digest, pin.digest) << pin.name;
  }
}

TEST(Hierarchy, ExplicitInstanceThrows) {
  const auto expl = test::to_explicit(test::random_instance(10, 1));
  EXPECT_THROW(Hierarchy(expl, Options{}), ConfigError);
}

TEST(Hierarchy, BadOptionsThrow) {
  const auto inst = test::random_instance(10, 2);
  Options bad_top;
  bad_top.top_size = 1;
  EXPECT_THROW(Hierarchy(inst, bad_top), ConfigError);
  Options bad_p;
  bad_p.strategy = Strategy::kFixed;
  bad_p.p = 0;
  EXPECT_THROW(Hierarchy(inst, bad_p), ConfigError);
}

TEST(Hierarchy, StrategyNames) {
  EXPECT_STREQ(strategy_name(Strategy::kUnlimited), "unlimited");
  EXPECT_STREQ(strategy_name(Strategy::kFixed), "fixed");
  EXPECT_STREQ(strategy_name(Strategy::kSemiFlexible), "semi-flexible");
}

TEST(Hierarchy, PaperInstanceSmokeTest) {
  const auto inst = tsp::make_paper_instance("pcb442");
  Options options;
  options.strategy = Strategy::kSemiFlexible;
  options.p = 3;
  const Hierarchy h(inst, options);
  EXPECT_NO_THROW(h.validate());
  EXPECT_LE(h.max_cluster_size(), 3U);
}

}  // namespace
}  // namespace cim::cluster
