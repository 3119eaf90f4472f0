// The sparse incremental swap kernel must be a pure optimisation: for
// every noise mode and backend it has to reproduce the dense
// rebuild-and-scan kernel bit for bit — same tours, same hardware
// counters (which model hardware row reads, not simulator work).
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "anneal/clustered_annealer.hpp"
#include "test_helpers.hpp"
#include "util/telemetry.hpp"

namespace cim::anneal {
namespace {

namespace telemetry = util::telemetry;

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
  EXPECT_EQ(a.hw.dataflow.input_shift_events(),
            b.hw.dataflow.input_shift_events())
      << label;
  EXPECT_EQ(a.hw.dataflow.input_bits_shifted(),
            b.hw.dataflow.input_bits_shifted())
      << label;
}

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

std::size_t total_quiescent_hits(const AnnealResult& r) {
  std::size_t total = 0;
  for (const auto& level : r.levels) total += level.quiescent_hits;
  return total;
}

class MemoKernelEquivalence
    : public ::testing::TestWithParam<std::tuple<NoiseMode, BackendKind>> {};

TEST_P(MemoKernelEquivalence, MatchesRecomputeExactly) {
  // The sparse kernel with its swap ΔE cache must reproduce the dense
  // recompute kernel, the oracle: identical tours, identical noise
  // evolution and identical hardware counters (a hit charges the full
  // row-read cost of its four MACs), for every noise mode and both
  // storage backends.
  const auto [mode, backend] = GetParam();
  const auto inst = test::random_instance(60, 17);
  AnnealerConfig config = base_config(3, 5);
  config.noise = mode;
  config.backend = backend;

  config.sparse_swap_kernel = true;
  const auto memo = ClusteredAnnealer(config).solve(inst);
  config.sparse_swap_kernel = false;
  const auto recompute = ClusteredAnnealer(config).solve(inst);

  expect_identical(memo, recompute, "memo vs recompute");
  EXPECT_TRUE(memo.tour.is_valid(60));
  // Every sparse swap attempt is exactly one ΔE-cache lookup, a hit or a
  // miss; the dense kernel makes none.
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
    config.sparse_swap_kernel = true;
    const auto memo = ClusteredAnnealer(config).solve(inst);
    config.sparse_swap_kernel = false;
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
    config.sparse_swap_kernel = true;
    const auto memo = ClusteredAnnealer(config).solve(inst);
    config.sparse_swap_kernel = false;
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

/// Sparse (cached) vs dense kernel on `inst` clustered by `clustering`, under
/// the two deterministic-accept SRAM modes and kLfsr, over a few anneal
/// seeds. A stale cached delta or a slot left quiescent after its inputs
/// changed often changes no tour, so the per-iteration energy trace and
/// the accept counts are compared too. `level0_slots` (0: any) pins the
/// length of level 0's ring. `quiescent` gets the quiescent hits summed
/// per mode, in the order kSramWeight, kSramSpin, kLfsr.
using QuiescentHits = std::array<std::size_t, 3>;
void expect_memo_matches(const tsp::Instance& inst,
                         const cluster::Options& clustering,
                         std::size_t level0_slots, QuiescentHits& quiescent) {
  constexpr std::array<NoiseMode, 3> kModes = {
      NoiseMode::kSramWeight, NoiseMode::kSramSpin, NoiseMode::kLfsr};
  quiescent = {};
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      AnnealerConfig config;
      config.clustering = clustering;
      config.seed = seed;
      config.noise = kModes[m];
      config.record_trace = true;
      config.sparse_swap_kernel = true;
      const auto memo = ClusteredAnnealer(config).solve(inst);
      if (level0_slots != 0) {
        ASSERT_EQ(memo.levels.back().clusters, level0_slots);
      }
      config.sparse_swap_kernel = false;
      const auto recompute = ClusteredAnnealer(config).solve(inst);
      const std::string label =
          "mode " + std::to_string(m) + " seed " + std::to_string(seed);
      expect_identical(memo, recompute, label.c_str());
      EXPECT_EQ(memo.trace, recompute.trace) << label;
      ASSERT_EQ(memo.levels.size(), recompute.levels.size());
      for (std::size_t k = 0; k < memo.levels.size(); ++k) {
        EXPECT_EQ(memo.levels[k].swaps_accepted,
                  recompute.levels[k].swaps_accepted)
            << label;
        EXPECT_EQ(memo.levels[k].uphill_accepted,
                  recompute.levels[k].uphill_accepted)
            << label;
        EXPECT_EQ(memo.levels[k].swaps_attempted,
                  recompute.levels[k].swaps_attempted)
            << label;
        EXPECT_EQ(recompute.levels[k].quiescent_hits, 0U) << label;
        EXPECT_LE(memo.levels[k].quiescent_hits, memo.levels[k].memo_hits)
            << label;
      }
      EXPECT_EQ(total_memo_hits(memo) + total_memo_misses(memo),
                total_attempts(memo));
      EXPECT_GT(total_memo_hits(memo), 0U) << label;
      EXPECT_TRUE(memo.tour.is_valid(inst.size()));
      quiescent[m] += total_quiescent_hits(memo);
    }
  }
  // kLfsr may accept an uphill cached delta through a draw, so its slots
  // never go quiescent.
  EXPECT_EQ(quiescent[2], 0U);
}

/// expect_memo_matches on a level-0 ring of `slots` clusters of `p`
/// cities, whose slots neighbour themselves (one slot), each other on both
/// sides (two slots) or an odd ring's third colour (three slots): the
/// boundary input rows then follow perms the swap itself or a neighbour
/// moves, the invalidation case a long ring rarely exercises. A top size
/// of 2 lets 3 cities form one cluster rather than three singletons.
QuiescentHits expect_memo_matches_on_small_ring(std::uint32_t p,
                                                std::size_t slots) {
  const auto inst = test::random_instance(p * slots, 12);
  cluster::Options clustering;
  clustering.strategy = cluster::Strategy::kFixed;
  clustering.p = p;
  clustering.top_size = 2;
  QuiescentHits quiescent{};
  expect_memo_matches(inst, clustering, slots, quiescent);
  return quiescent;
}

TEST(SwapKernel, MemoMatchesRecomputeOnSingleSlotRing) {
  expect_memo_matches_on_small_ring(6, 1);
}

TEST(SwapKernel, MemoMatchesRecomputeOnTwoSlotRing) {
  expect_memo_matches_on_small_ring(6, 2);
}

TEST(SwapKernel, QuiescentSlotsMatchRecomputeOnSmallRings) {
  // At p = 2 and 3 every order pair of a slot is cached within a few
  // rejected attempts, so slots spend most of the anneal quiescent; a
  // missed invalidation (a neighbour's accept, a write-back) shows here.
  // A one-slot ring of two cities cannot occur: any level of at most
  // top_size (≥ 2) items is the top, so two cities stay singletons.
  for (const std::uint32_t p : {2U, 3U}) {
    for (const std::size_t slots : {1U, 2U, 3U}) {
      if (p == 2 && slots == 1) continue;
      SCOPED_TRACE("p " + std::to_string(p) + ", " + std::to_string(slots) +
                   " slots");
      const auto quiescent = expect_memo_matches_on_small_ring(p, slots);
      EXPECT_GT(quiescent[0], 0U);
      EXPECT_GT(quiescent[1], 0U);
    }
  }
}

TEST(SwapKernel, QuiescentSlotsMatchRecomputeOnLongRing) {
  const auto inst = test::random_instance(60, 17);
  for (const std::uint32_t p : {2U, 3U}) {
    SCOPED_TRACE("p " + std::to_string(p));
    cluster::Options clustering;
    clustering.p = p;
    QuiescentHits quiescent{};
    expect_memo_matches(inst, clustering, 0, quiescent);
    EXPECT_GT(quiescent[0], 0U);
    EXPECT_GT(quiescent[1], 0U);
  }
}

TEST(SwapKernel, QuiescentHitsAreCountedAndPublished) {
  // The fast path counts its attempts as memo hits and as quiescent hits,
  // and the level totals reach the anneal.quiescent_hits counter. It never
  // runs under kLfsr or on the dense kernel.
  const auto inst = test::random_instance(60, 17);
  AnnealerConfig config = base_config(3, 5);
  config.noise = NoiseMode::kSramWeight;
  telemetry::Registry& telem = telemetry::Registry::global();
  telem.reset();
  const auto sram = ClusteredAnnealer(config).solve(inst);
  EXPECT_GT(total_quiescent_hits(sram), 0U);
  EXPECT_LE(total_quiescent_hits(sram), total_memo_hits(sram));
  if constexpr (telemetry::kEnabled) {
    EXPECT_EQ(telem.counter("anneal.quiescent_hits").value(),
              total_quiescent_hits(sram));
  }

  config.noise = NoiseMode::kLfsr;
  const auto lfsr = ClusteredAnnealer(config).solve(inst);
  EXPECT_GT(total_memo_hits(lfsr), 0U);
  EXPECT_EQ(total_quiescent_hits(lfsr), 0U);

  config.noise = NoiseMode::kSramWeight;
  config.sparse_swap_kernel = false;
  const auto dense = ClusteredAnnealer(config).solve(inst);
  EXPECT_EQ(total_quiescent_hits(dense), 0U);
}

}  // namespace
}  // namespace cim::anneal
