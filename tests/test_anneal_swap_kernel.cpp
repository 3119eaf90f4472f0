// The sparse incremental swap kernel must be a pure optimisation: for
// every noise mode and backend it has to reproduce the dense
// rebuild-and-scan kernel bit for bit — same tours, same hardware
// counters (which model hardware row reads, not simulator work). The
// colour-parallel mode has its own contract: deterministic for a given
// seed and independent of the thread count (> 1).
#include <gtest/gtest.h>

#include "anneal/clustered_annealer.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace cim::anneal {
namespace {

AnnealerConfig base_config(std::uint32_t p, std::uint64_t seed) {
  AnnealerConfig config;
  config.clustering.strategy = cluster::Strategy::kSemiFlexible;
  config.clustering.p = p;
  config.seed = seed;
  return config;
}

void expect_identical(const AnnealResult& a, const AnnealResult& b,
                      const char* label) {
  EXPECT_TRUE(a.tour == b.tour) << label;
  EXPECT_EQ(a.length, b.length) << label;
  EXPECT_EQ(a.hw.storage.macs, b.hw.storage.macs) << label;
  EXPECT_EQ(a.hw.storage.mac_bit_reads, b.hw.storage.mac_bit_reads) << label;
  EXPECT_EQ(a.hw.storage.writeback_events, b.hw.storage.writeback_events)
      << label;
  EXPECT_EQ(a.hw.storage.writeback_bits, b.hw.storage.writeback_bits)
      << label;
  EXPECT_EQ(a.hw.storage.pseudo_read_flips, b.hw.storage.pseudo_read_flips)
      << label;
  EXPECT_EQ(a.hw.swap_attempts, b.hw.swap_attempts) << label;
  EXPECT_EQ(a.hw.dataflow.edge_bits_transferred(),
            b.hw.dataflow.edge_bits_transferred())
      << label;
  EXPECT_EQ(a.hw.dataflow.downstream_transfers(),
            b.hw.dataflow.downstream_transfers())
      << label;
  EXPECT_EQ(a.hw.dataflow.upstream_transfers(),
            b.hw.dataflow.upstream_transfers())
      << label;
  EXPECT_EQ(a.hw.dataflow.third_phase_transfers(),
            b.hw.dataflow.third_phase_transfers())
      << label;
}

class SparseKernelEquivalence
    : public ::testing::TestWithParam<std::tuple<NoiseMode, BackendKind>> {};

TEST_P(SparseKernelEquivalence, MatchesDenseKernelExactly) {
  const auto [mode, backend] = GetParam();
  const auto inst = test::random_instance(60, 17);
  AnnealerConfig config = base_config(3, 5);
  config.noise = mode;
  config.backend = backend;

  config.sparse_swap_kernel = true;
  const auto sparse = ClusteredAnnealer(config).solve(inst);
  config.sparse_swap_kernel = false;
  const auto dense = ClusteredAnnealer(config).solve(inst);

  expect_identical(sparse, dense, "sparse vs dense");
  EXPECT_TRUE(sparse.tour.is_valid(60));
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndBackends, SparseKernelEquivalence,
    ::testing::Combine(::testing::Values(NoiseMode::kNone,
                                         NoiseMode::kSramWeight,
                                         NoiseMode::kSramSpin,
                                         NoiseMode::kLfsr),
                       ::testing::Values(BackendKind::kFast,
                                         BackendKind::kBitLevel)));

TEST(SwapKernel, SequentialGibbsAlsoEquivalent) {
  // The sequential (non-chromatic) ablation path uses the same kernel.
  const auto inst = test::random_instance(80, 23);
  AnnealerConfig config = base_config(3, 9);
  config.chromatic_parallel = false;
  config.sparse_swap_kernel = true;
  const auto sparse = ClusteredAnnealer(config).solve(inst);
  config.sparse_swap_kernel = false;
  const auto dense = ClusteredAnnealer(config).solve(inst);
  expect_identical(sparse, dense, "sequential");
}

TEST(SwapKernel, ColorThreadsIndependentOfThreadCount) {
  // Per-slot RNG streams make the result a function of the seed alone:
  // any thread count > 1 must produce the same tour and counters.
  const auto inst = test::random_instance(150, 31);
  AnnealerConfig config = base_config(4, 11);
  config.color_threads = 2;
  const auto two = ClusteredAnnealer(config).solve(inst);
  config.color_threads = 3;
  const auto three = ClusteredAnnealer(config).solve(inst);
  config.color_threads = 8;
  const auto eight = ClusteredAnnealer(config).solve(inst);
  expect_identical(two, three, "2 vs 3 threads");
  expect_identical(two, eight, "2 vs 8 threads");
  EXPECT_TRUE(two.tour.is_valid(150));
}

TEST(SwapKernel, ColorThreadsDeterministicAcrossRuns) {
  const auto inst = test::random_instance(120, 37);
  AnnealerConfig config = base_config(3, 13);
  config.color_threads = 4;
  const auto a = ClusteredAnnealer(config).solve(inst);
  const auto b = ClusteredAnnealer(config).solve(inst);
  expect_identical(a, b, "repeat run");
}

TEST(SwapKernel, ColorParallelStress) {
  // Larger ring with every noise mode's hot path exercised under
  // threads; primarily a tsan target (scripts/ci.sh runs the suite under
  // the tsan preset).
  for (const NoiseMode mode :
       {NoiseMode::kSramWeight, NoiseMode::kSramSpin, NoiseMode::kLfsr}) {
    const auto inst = test::random_instance(300, 41);
    AnnealerConfig config = base_config(4, 19);
    config.noise = mode;
    config.color_threads = 4;
    config.schedule.total_iterations = 40;
    const auto result = ClusteredAnnealer(config).solve(inst);
    EXPECT_TRUE(result.tour.is_valid(300));
  }
}

std::size_t total_memo_hits(const AnnealResult& r) {
  std::size_t total = 0;
  for (const auto& level : r.levels) total += level.memo_hits;
  return total;
}

std::size_t total_memo_misses(const AnnealResult& r) {
  std::size_t total = 0;
  for (const auto& level : r.levels) total += level.memo_misses;
  return total;
}

std::size_t total_attempts(const AnnealResult& r) {
  std::size_t total = 0;
  for (const auto& level : r.levels) total += level.swaps_attempted;
  return total;
}

class MemoKernelEquivalence
    : public ::testing::TestWithParam<std::tuple<NoiseMode, BackendKind>> {};

TEST_P(MemoKernelEquivalence, MatchesRecomputeExactly) {
  // The swap ΔE cache must be a pure optimisation of the sparse kernel:
  // identical tours, identical noise evolution and identical hardware
  // counters (a hit charges the full row-read cost of its four MACs), for
  // every noise mode and both storage backends — including the
  // bit-level backend's lazy corrupted-weight path.
  const auto [mode, backend] = GetParam();
  const auto inst = test::random_instance(60, 17);
  AnnealerConfig config = base_config(3, 5);
  config.noise = mode;
  config.backend = backend;

  config.memoize_partial_sums = true;
  const auto memo = ClusteredAnnealer(config).solve(inst);
  config.memoize_partial_sums = false;
  const auto recompute = ClusteredAnnealer(config).solve(inst);

  expect_identical(memo, recompute, "memo vs recompute");
  // Every swap attempt is exactly one ΔE-cache lookup: a hit or a miss
  // when the cache is on, neither when it is off.
  EXPECT_EQ(total_memo_hits(memo) + total_memo_misses(memo),
            total_attempts(memo));
  EXPECT_GT(total_memo_hits(memo), 0U);
  EXPECT_EQ(total_memo_hits(recompute), 0U);
  EXPECT_EQ(total_memo_misses(recompute), 0U);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndBackends, MemoKernelEquivalence,
    ::testing::Combine(::testing::Values(NoiseMode::kNone,
                                         NoiseMode::kSramWeight,
                                         NoiseMode::kSramSpin,
                                         NoiseMode::kLfsr),
                       ::testing::Values(BackendKind::kFast,
                                         BackendKind::kBitLevel)));

TEST(SwapKernel, MemoMatchesRecomputeUnderColorThreads) {
  // Memo state is per-slot and slots are partitioned across colour
  // workers, so the memo must not perturb the thread-count-independence
  // contract.
  const auto inst = test::random_instance(150, 31);
  AnnealerConfig config = base_config(4, 11);
  config.color_threads = 4;
  config.memoize_partial_sums = true;
  const auto memo = ClusteredAnnealer(config).solve(inst);
  config.memoize_partial_sums = false;
  const auto recompute = ClusteredAnnealer(config).solve(inst);
  expect_identical(memo, recompute, "memo vs recompute under threads");
  config.memoize_partial_sums = true;
  config.color_threads = 8;
  const auto memo8 = ClusteredAnnealer(config).solve(inst);
  expect_identical(memo, memo8, "memo 4 vs 8 threads");
}

TEST(SwapKernel, MemoOnCorruptedWeightGrids) {
  // Structured (grid) instances under heavy weight corruption: long
  // rejection streaks on ties are exactly where the memo earns hits, and
  // where a stale entry would surface as a divergent tour or counter.
  for (const BackendKind backend :
       {BackendKind::kFast, BackendKind::kBitLevel}) {
    const auto inst = test::grid_instance(8, 8);
    AnnealerConfig config = base_config(4, 21);
    config.noise = NoiseMode::kSramWeight;
    config.backend = backend;
    config.sram.sigma_vth = 0.10;  // heavier mismatch → more noisy LSBs
    config.memoize_partial_sums = true;
    const auto memo = ClusteredAnnealer(config).solve(inst);
    config.memoize_partial_sums = false;
    const auto recompute = ClusteredAnnealer(config).solve(inst);
    expect_identical(memo, recompute, "corrupted grid");
    EXPECT_GT(memo.hw.storage.pseudo_read_flips, 0U);
    EXPECT_GT(total_memo_hits(memo), 0U);
  }
}

TEST(SwapKernel, MemoNeverHitsAcrossWriteBacks) {
  // A write-back before every iteration leaves each slot one attempt per
  // weight generation, so no cached delta may ever be reused; a stale hit
  // would show here as a nonzero count or a diverged tour or counter.
  for (const BackendKind backend :
       {BackendKind::kFast, BackendKind::kBitLevel}) {
    const auto inst = test::random_instance(60, 17);
    AnnealerConfig config = base_config(3, 5);
    config.noise = NoiseMode::kSramWeight;
    config.backend = backend;
    config.schedule.total_iterations = 60;
    config.schedule.iterations_per_step = 1;
    config.memoize_partial_sums = true;
    const auto memo = ClusteredAnnealer(config).solve(inst);
    config.memoize_partial_sums = false;
    const auto recompute = ClusteredAnnealer(config).solve(inst);
    expect_identical(memo, recompute, "write-back every iteration");
    for (const auto& level : memo.levels) {
      EXPECT_EQ(level.memo_hits, 0U) << "level " << level.level;
      EXPECT_EQ(level.memo_misses, level.swaps_attempted)
          << "level " << level.level;
    }
    EXPECT_GT(total_attempts(memo), 0U);
  }
}

/// Memo on vs off on a small ring whose slots neighbour themselves (one
/// slot) or each other on both sides (two slots): the boundary input rows
/// then follow perms the swap itself or the one neighbour moves, the
/// invalidation case a long ring rarely exercises. A stale cached delta
/// often changes no tour here, so the per-iteration energy trace and the
/// accept counts are compared too, over a few anneal seeds.
void expect_memo_matches_on_small_ring(std::uint32_t p, std::size_t slots) {
  const std::size_t cities = p * slots;
  const auto inst = test::random_instance(cities, 12);
  for (const NoiseMode mode : {NoiseMode::kSramWeight, NoiseMode::kLfsr}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      AnnealerConfig config = base_config(p, seed);
      config.clustering.strategy = cluster::Strategy::kFixed;
      config.noise = mode;
      config.record_trace = true;
      config.memoize_partial_sums = true;
      const auto memo = ClusteredAnnealer(config).solve(inst);
      ASSERT_EQ(memo.levels.back().clusters, slots);
      config.memoize_partial_sums = false;
      const auto recompute = ClusteredAnnealer(config).solve(inst);
      expect_identical(memo, recompute, "small ring");
      EXPECT_EQ(memo.trace, recompute.trace) << "seed " << seed;
      ASSERT_EQ(memo.levels.size(), recompute.levels.size());
      for (std::size_t k = 0; k < memo.levels.size(); ++k) {
        EXPECT_EQ(memo.levels[k].swaps_accepted,
                  recompute.levels[k].swaps_accepted)
            << "seed " << seed;
        EXPECT_EQ(memo.levels[k].uphill_accepted,
                  recompute.levels[k].uphill_accepted)
            << "seed " << seed;
      }
      EXPECT_EQ(total_memo_hits(memo) + total_memo_misses(memo),
                total_attempts(memo));
      EXPECT_GT(total_memo_hits(memo), 0U);
      EXPECT_TRUE(memo.tour.is_valid(cities));
    }
  }
}

TEST(SwapKernel, MemoMatchesRecomputeOnSingleSlotRing) {
  expect_memo_matches_on_small_ring(6, 1);
}

TEST(SwapKernel, MemoMatchesRecomputeOnTwoSlotRing) {
  expect_memo_matches_on_small_ring(6, 2);
}

TEST(SwapKernel, ConfigValidation) {
  AnnealerConfig config = base_config(3, 1);
  config.color_threads = 0;
  EXPECT_THROW(ClusteredAnnealer{config}, ConfigError);
  config.color_threads = 2;
  config.chromatic_parallel = false;
  EXPECT_THROW(ClusteredAnnealer{config}, ConfigError);
  config.chromatic_parallel = true;
  config.sparse_swap_kernel = false;
  EXPECT_THROW(ClusteredAnnealer{config}, ConfigError);
  config.sparse_swap_kernel = true;
  EXPECT_NO_THROW(ClusteredAnnealer{config});
}

}  // namespace
}  // namespace cim::anneal
