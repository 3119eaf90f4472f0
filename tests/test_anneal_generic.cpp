// GenericAnnealer: the clustered-window anneal of arbitrary
// QUBO/Ising models. Mirrors the Max-Cut suite's equivalence discipline —
// the scalar unmemoized path is the oracle, and the vector kernel and
// partial-sum memo must reproduce it bit for bit (spins, energies, flip
// sequence, StorageCounters) — plus the front-end specifics: external
// fields via the bias row, group-strategy windows, exact integer
// energies from penalty families.
#include "anneal/generic_annealer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "ising/partition.hpp"
#include "qubo/coloring.hpp"
#include "qubo/knapsack.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace cim::anneal {
namespace {

GenericAnnealConfig base_config() {
  GenericAnnealConfig config;
  config.schedule.total_iterations = 200;
  config.schedule.iterations_per_step = 25;
  config.seed = 1;
  return config;
}

/// Small random model with both couplings and fields, integer
/// coefficients (exact on the hardware).
ising::GenericModel random_model(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  ising::GenericModel model("rand", n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.chance(0.3)) {
        model.add_coupling(static_cast<ising::SpinIndex>(i),
                           static_cast<ising::SpinIndex>(j),
                           static_cast<double>(rng.range(-4, 4)));
      }
    }
    if (rng.chance(0.4)) {
      model.add_field(static_cast<ising::SpinIndex>(i),
                      static_cast<double>(rng.range(-3, 3)));
    }
  }
  return model;
}

long long brute_force_energy_hw(const ising::GenericModel& model) {
  const auto mapping = ising::map_to_hardware(model);
  const std::size_t n = model.size();
  EXPECT_LE(n, 20U);
  long long best = std::numeric_limits<long long>::max();
  std::vector<ising::Spin> spins(n);
  for (std::uint32_t mask = 0; mask < (1U << n); ++mask) {
    for (std::size_t i = 0; i < n; ++i) {
      spins[i] = (mask >> i) & 1U ? 1 : -1;
    }
    best = std::min(best, mapping.energy_hw(spins));
  }
  return best;
}

TEST(GenericAnnealer, ReachesBruteForceOptimumWithFields) {
  // Fields exercise the bias row; the optimum must appear across a few
  // seeds on instances this small.
  const auto model = random_model(12, 0xA001);
  const long long optimum = brute_force_energy_hw(model);
  long long best = std::numeric_limits<long long>::max();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto config = base_config();
    config.seed = seed;
    const auto result = GenericAnnealer(config).solve(model);
    EXPECT_GE(result.best_energy_hw, optimum);
    EXPECT_TRUE(result.exact_mapping);
    best = std::min(best, result.best_energy_hw);
  }
  EXPECT_EQ(best, optimum);
}

TEST(GenericAnnealer, SolvesColoringToFeasibility) {
  const auto instance = qubo::ring_coloring(6, 2);
  const auto encoding = qubo::encode_coloring(instance);
  double best = std::numeric_limits<double>::max();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto config = base_config();
    config.seed = seed;
    const auto result = GenericAnnealer(config).solve(encoding.model);
    best = std::min(best, result.best_energy);
    // Energies are exact hw integers, so 0 is exact.
    if (result.best_energy == 0.0) {  // NOLINT(unit-float-eq)
      const auto decoded = encoding.decode(instance, result.best_spins);
      EXPECT_TRUE(decoded.feasible);
    }
  }
  // A proper 2-colouring of the even ring has model energy exactly 0.
  EXPECT_DOUBLE_EQ(best, 0.0);
}

TEST(GenericAnnealer, SolvesKnapsackToOracleValue) {
  const auto instance =
      qubo::make_knapsack("toy", {6, 5, 4, 3}, {3, 2, 2, 1}, 5);
  const auto encoding = qubo::encode_knapsack(instance);
  const long long oracle = qubo::brute_force_knapsack(instance);
  const auto mapping = ising::map_to_hardware(encoding.model);
  // The tight default penalty (max value + 1) keeps this toy instance
  // exact in the 8-bit weight planes, so the dynamics see the true
  // value terms — with Σv + 1 they quantise to zero and the anneal
  // plateaus on an arbitrary feasible subset.
  EXPECT_TRUE(mapping.exact_in_bits(8));
  double best = std::numeric_limits<double>::max();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto config = base_config();
    config.seed = seed;
    const auto result = GenericAnnealer(config).solve(encoding.model);
    best = std::min(best,
                    mapping.to_model_energy(result.best_energy_hw,
                                            encoding.model.offset()));
  }
  EXPECT_DOUBLE_EQ(best, -static_cast<double>(oracle));
}

TEST(GenericAnnealer, EveryStrategyAnnealsValidly) {
  const auto model = random_model(30, 0xA002);
  for (const auto strategy : ising::all_group_strategies()) {
    SCOPED_TRACE(ising::group_strategy_name(strategy));
    auto config = base_config();
    config.strategy = strategy;
    config.group_block = 8;
    const auto result = GenericAnnealer(config).solve(model);
    EXPECT_EQ(result.spins.size(), model.size());
    EXPECT_GT(result.group_count, 0U);
    EXPECT_EQ(result.parallel_groups,
              strategy == ising::GroupStrategy::kChromatic);
    // Reported energies must match an independent evaluation.
    const auto mapping = ising::map_to_hardware(model);
    EXPECT_EQ(result.energy_hw, mapping.energy_hw(result.spins));
    EXPECT_EQ(result.best_energy_hw, mapping.energy_hw(result.best_spins));
    EXPECT_LE(result.best_energy_hw, result.energy_hw);
  }
}

TEST(GenericAnnealer, ChromaticCyclesBeatSequentialCycles) {
  const auto model = random_model(60, 0xA003);
  auto config = base_config();
  config.strategy = ising::GroupStrategy::kChromatic;
  const auto chromatic = GenericAnnealer(config).solve(model);
  config.strategy = ising::GroupStrategy::kIndexBlocks;
  const auto blocked = GenericAnnealer(config).solve(model);
  // Chromatic updates a whole independent set per cycle; blocked
  // strategies pay one cycle per spin.
  EXPECT_LT(chromatic.update_cycles, blocked.update_cycles);
}

TEST(GenericAnnealer, VectorKernelAndMemoMatchScalarExactly) {
  // 2×2 variant cross-product against the scalar unmemoized oracle, for
  // each strategy: identical spins, energies, flips, trace and counters.
  const auto model = random_model(70, 0xA004);
  for (const auto strategy :
       {ising::GroupStrategy::kChromatic, ising::GroupStrategy::kBfsBlocks}) {
    SCOPED_TRACE(ising::group_strategy_name(strategy));
    auto config = base_config();
    config.strategy = strategy;
    config.record_trace = true;
    config.vector_kernel = false;
    config.memoize_partial_sums = false;
    const auto oracle = GenericAnnealer(config).solve(model);
    for (const bool vector : {false, true}) {
      for (const bool memo : {false, true}) {
        if (!vector && !memo) continue;
        config.vector_kernel = vector;
        config.memoize_partial_sums = memo;
        const auto variant = GenericAnnealer(config).solve(model);
        SCOPED_TRACE(testing::Message()
                     << "vector " << vector << " memo " << memo);
        EXPECT_EQ(variant.spins, oracle.spins);
        EXPECT_EQ(variant.best_spins, oracle.best_spins);
        EXPECT_EQ(variant.energy_hw, oracle.energy_hw);
        EXPECT_EQ(variant.best_energy_hw, oracle.best_energy_hw);
        EXPECT_EQ(variant.flips, oracle.flips);
        EXPECT_EQ(variant.trace, oracle.trace);
        EXPECT_EQ(variant.storage.macs, oracle.storage.macs);
        EXPECT_EQ(variant.storage.mac_bit_reads,
                  oracle.storage.mac_bit_reads);
        EXPECT_EQ(variant.storage.writeback_events,
                  oracle.storage.writeback_events);
        EXPECT_EQ(variant.storage.writeback_bits,
                  oracle.storage.writeback_bits);
        EXPECT_EQ(variant.storage.pseudo_read_flips,
                  oracle.storage.pseudo_read_flips);
        if (memo) {
          EXPECT_GT(variant.memo_hits, 0U);
          EXPECT_EQ(variant.memo_hits + variant.memo_misses,
                    variant.sweeps * model.size());
        } else {
          EXPECT_EQ(variant.memo_hits, 0U);
        }
      }
    }
  }
}

TEST(GenericAnnealer, MemoMatchesRecomputeOnHardCases) {
  // The incremental fields against the column-MAC oracle where they are
  // easiest to get wrong, each compared on every counter: hard-stuck
  // cells; windows of 151 × 128 ≥ 16 384 weights, so the write-back runs
  // chunked on the shared pool (with the bias row); BFS blocks, whose
  // groups are not independent sets; and the LFSR Metropolis path.
  struct Case {
    const char* name;
    std::size_t n;
    ising::GroupStrategy strategy;
    NoiseMode noise;
    double stuck_cell_rate;
  };
  for (const Case& c :
       {Case{"stuck", 70, ising::GroupStrategy::kChromatic,
             NoiseMode::kSramWeight, 0.02},
        Case{"chunked", 150, ising::GroupStrategy::kIndexBlocks,
             NoiseMode::kSramWeight, 0.0},
        Case{"bfs", 70, ising::GroupStrategy::kBfsBlocks,
             NoiseMode::kSramWeight, 0.0},
        Case{"lfsr", 70, ising::GroupStrategy::kChromatic, NoiseMode::kLfsr,
             0.0}}) {
    SCOPED_TRACE(c.name);
    const auto model = random_model(c.n, 0xA00B);
    auto config = base_config();
    config.strategy = c.strategy;
    config.group_block = 128;
    config.noise = c.noise;
    config.sram.stuck_cell_rate = c.stuck_cell_rate;
    config.record_trace = true;
    config.memoize_partial_sums = true;
    const auto memo = GenericAnnealer(config).solve(model);
    config.memoize_partial_sums = false;
    const auto recompute = GenericAnnealer(config).solve(model);
    EXPECT_EQ(memo.spins, recompute.spins);
    EXPECT_EQ(memo.best_spins, recompute.best_spins);
    EXPECT_EQ(memo.energy_hw, recompute.energy_hw);
    EXPECT_EQ(memo.best_energy_hw, recompute.best_energy_hw);
    EXPECT_EQ(memo.flips, recompute.flips);
    EXPECT_EQ(memo.trace, recompute.trace);
    EXPECT_EQ(memo.group_count, recompute.group_count);
    EXPECT_EQ(memo.update_cycles, recompute.update_cycles);
    EXPECT_EQ(memo.storage.macs, recompute.storage.macs);
    EXPECT_EQ(memo.storage.mac_bit_reads, recompute.storage.mac_bit_reads);
    EXPECT_EQ(memo.storage.writeback_events,
              recompute.storage.writeback_events);
    EXPECT_EQ(memo.storage.writeback_bits, recompute.storage.writeback_bits);
    EXPECT_EQ(memo.storage.pseudo_read_flips,
              recompute.storage.pseudo_read_flips);
    EXPECT_EQ(memo.memo_hits + memo.memo_misses, memo.sweeps * model.size());
    EXPECT_GT(memo.flips, 0U);
  }
}

TEST(GenericAnnealer, DeterministicPerSeed) {
  const auto model = random_model(40, 0xA005);
  const auto a = GenericAnnealer(base_config()).solve(model);
  const auto b = GenericAnnealer(base_config()).solve(model);
  EXPECT_EQ(a.spins, b.spins);
  EXPECT_EQ(a.energy_hw, b.energy_hw);
  EXPECT_EQ(a.flips, b.flips);
}

TEST(GenericAnnealer, QuantisedMappingStillReportsExactEnergies) {
  // Coefficients beyond the 8-bit plane range are scaled down for the
  // dynamics, but reported energies must stay exact (unquantised
  // mapping evaluation).
  ising::GenericModel model("big", 10);
  util::Rng rng(0xA006);
  for (std::size_t i = 0; i + 1 < 10; ++i) {
    model.add_coupling(static_cast<ising::SpinIndex>(i),
                       static_cast<ising::SpinIndex>(i + 1),
                       static_cast<double>(rng.range(-2000, 2000)));
  }
  const auto result = GenericAnnealer(base_config()).solve(model);
  EXPECT_FALSE(result.exact_mapping);
  const auto mapping = ising::map_to_hardware(model);
  EXPECT_EQ(result.energy_hw, mapping.energy_hw(result.spins));
  EXPECT_EQ(result.best_energy_hw, mapping.energy_hw(result.best_spins));
}

TEST(GenericAnnealer, LfsrAndNoNoiseModesRun) {
  const auto model = random_model(24, 0xA007);
  for (const NoiseMode mode : {NoiseMode::kNone, NoiseMode::kLfsr}) {
    auto config = base_config();
    config.noise = mode;
    const auto result = GenericAnnealer(config).solve(model);
    const auto mapping = ising::map_to_hardware(model);
    EXPECT_EQ(result.energy_hw, mapping.energy_hw(result.spins));
  }
}

TEST(GenericAnnealer, TraceRecordsEverySweep) {
  auto config = base_config();
  config.record_trace = true;
  const auto model = random_model(20, 0xA008);
  const auto result = GenericAnnealer(config).solve(model);
  EXPECT_EQ(result.trace.size(), result.sweeps);
  EXPECT_LE(result.best_energy_hw,
            *std::min_element(result.trace.begin(), result.trace.end()));
}

TEST(GenericAnnealer, WarmStartValidation) {
  const auto model = random_model(16, 0xA009);
  auto config = base_config();
  config.initial_spins.assign(8, 1);  // wrong size
  EXPECT_THROW(GenericAnnealer(config).solve(model), ConfigError);
  config.initial_spins.assign(16, 1);
  config.initial_spins[5] = 0;  // not ±1
  EXPECT_THROW(GenericAnnealer(config).solve(model), ConfigError);
  config.initial_spins[5] = -1;
  const auto warm_a = GenericAnnealer(config).solve(model);
  const auto warm_b = GenericAnnealer(config).solve(model);
  EXPECT_EQ(warm_a.spins, warm_b.spins);
}

TEST(GenericAnnealer, InvalidConfigThrows) {
  auto bad = base_config();
  bad.weight_bits = 0;
  EXPECT_THROW(GenericAnnealer{bad}, ConfigError);
  auto bad_block = base_config();
  bad_block.group_block = 0;
  EXPECT_THROW(GenericAnnealer{bad_block}, ConfigError);
}

TEST(GenericAnnealer, SingleSpinFieldOnlyModel) {
  // Degenerate shape: one spin, one field — the window is 2×1 (bias row
  // only coupling) and the optimum aligns the spin with the field.
  ising::GenericModel model("one", 1);
  model.add_field(0, 3.0);
  const auto result = GenericAnnealer(base_config()).solve(model);
  EXPECT_EQ(result.best_spins[0], 1);  // E = −h·σ minimised at σ = +1
  EXPECT_EQ(result.best_energy_hw, -3);
}

}  // namespace
}  // namespace cim::anneal
