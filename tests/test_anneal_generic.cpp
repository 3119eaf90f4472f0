// GenericAnnealer: the clustered-window anneal of arbitrary
// QUBO/Ising models. Mirrors the Max-Cut suite's equivalence discipline —
// the unmemoized column-MAC path is the oracle, and the partial-sum memo
// must reproduce it bit for bit (spins, energies, flip sequence,
// StorageCounters) — plus the front-end specifics: external
// fields via the bias row, group-strategy windows, exact integer
// energies from penalty families.
#include "anneal/generic_annealer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

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

TEST(GenericAnnealer, MemoMatchesScalarExactly) {
  // The memoized fields against the unmemoized column-MAC oracle, for
  // each strategy: identical spins, energies, flips, trace and counters.
  const auto model = random_model(70, 0xA004);
  for (const auto strategy :
       {ising::GroupStrategy::kChromatic, ising::GroupStrategy::kIndexBlocks}) {
    SCOPED_TRACE(ising::group_strategy_name(strategy));
    auto config = base_config();
    config.strategy = strategy;
    config.record_trace = true;
    config.memoize_partial_sums = false;
    const auto oracle = GenericAnnealer(config).solve(model);
    config.memoize_partial_sums = true;
    const auto memo = GenericAnnealer(config).solve(model);
    EXPECT_EQ(memo.spins, oracle.spins);
    EXPECT_EQ(memo.best_spins, oracle.best_spins);
    EXPECT_EQ(memo.energy_hw, oracle.energy_hw);
    EXPECT_EQ(memo.best_energy_hw, oracle.best_energy_hw);
    EXPECT_EQ(memo.flips, oracle.flips);
    EXPECT_EQ(memo.trace, oracle.trace);
    EXPECT_EQ(memo.storage.macs, oracle.storage.macs);
    EXPECT_EQ(memo.storage.mac_bit_reads, oracle.storage.mac_bit_reads);
    EXPECT_EQ(memo.storage.writeback_events, oracle.storage.writeback_events);
    EXPECT_EQ(memo.storage.writeback_bits, oracle.storage.writeback_bits);
    EXPECT_EQ(memo.storage.pseudo_read_flips,
              oracle.storage.pseudo_read_flips);
    EXPECT_GT(memo.memo_hits, 0U);
    EXPECT_EQ(memo.memo_hits + memo.memo_misses, memo.sweeps * model.size());
    EXPECT_EQ(oracle.memo_hits, 0U);
  }
}

TEST(GenericAnnealer, MemoMatchesRecomputeOnHardCases) {
  // The incremental fields against the column-MAC oracle where they are
  // easiest to get wrong, each compared on every counter: hard-stuck
  // cells; windows of 151 × 128 ≥ 4 096 weights, so each plane splits
  // across several pooled write-back tasks (with the bias row); index
  // blocks, whose groups are not independent sets; and the LFSR
  // Metropolis path.
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
        Case{"blocked", 70, ising::GroupStrategy::kIndexBlocks,
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

/// Spins as a '+'/'-' string: short to pin, readable in a failure.
std::string spin_string(const std::vector<ising::Spin>& spins) {
  std::string s;
  for (const ising::Spin v : spins) s += v > 0 ? '+' : '-';
  return s;
}

TEST(GenericAnnealer, OutcomeIsPinned) {
  // Every outcome field at fixed seeds on a model with fields and signed
  // couplings: each noise mode under both group strategies with the memo
  // on and off and a trace, plus a warm start without one. Memo on and
  // off must reach the same numbers.
  struct Pin {
    const char* name;
    NoiseMode noise;
    ising::GroupStrategy strategy;
    bool warm;
    std::string spins;
    std::string best_spins;
    long long energy_hw;
    long long best_energy_hw;
    long long trace_sum;
    std::size_t flips;
    std::size_t memo_hits;
    std::size_t memo_misses;
    std::uint64_t update_cycles;
    hw::StorageCounters storage;
  };
  // 200 sweeps × 24 spins × 2 planes of field MACs plus 8 write-backs ×
  // 24 columns × 2 planes of all-ones row-sum MACs: 9 600 + 384. Each MAC
  // reads 25 rows (24 spins and the bias row) × 8 bits.
  constexpr std::uint64_t kMacs = 9984;
  constexpr std::uint64_t kBitReads = kMacs * 25 * 8;
  constexpr auto kChromatic = ising::GroupStrategy::kChromatic;
  constexpr auto kBlocks = ising::GroupStrategy::kIndexBlocks;
  const Pin pins[] = {
      {"sram_weight", NoiseMode::kSramWeight, kChromatic, false,
       "+++--------++-+--+--+--+", "+++--------++-+--+--+--+", -98, -98,
       -14242, 509, 3196, 1604, 2400, {kMacs, kBitReads, 96, 76800, 1614}},
      {"lfsr", NoiseMode::kLfsr, kChromatic, false,
       "+---+--+--+-++--+-+-+++-", "+---+--+--+-++--+-+-+++-", -114, -114,
       -15788, 1555, 2011, 2789, 2400, {kMacs, kBitReads, 96, 76800, 0}},
      {"none", NoiseMode::kNone, kChromatic, false,
       "+---+--+--+-++--+-+-+++-", "+---+--+--+-++--+-+-+++-", -114, -114,
       -22772, 13, 4574, 226, 2400, {kMacs, kBitReads, 96, 76800, 0}},
      {"blocks_sram_weight", NoiseMode::kSramWeight, kBlocks, false,
       "+++-++------+-+-+---+---", "+++-++------+-+-+---+---", -92, -92,
       -11914, 799, 2766, 2034, 5400, {kMacs, kBitReads, 48, 76800, 1646}},
      {"blocks_lfsr", NoiseMode::kLfsr, kBlocks, false,
       "+---+--+--+-++--+-+-+++-", "+---+--+--+-++--+-+-+++-", -114, -114,
       -14926, 1589, 2070, 2730, 5400, {kMacs, kBitReads, 48, 76800, 0}},
      {"blocks_none", NoiseMode::kNone, kBlocks, false,
       "+---+--+--+-++--+-+-+++-", "+---+--+--+-++--+-+-+++-", -114, -114,
       -22784, 11, 4563, 237, 5400, {kMacs, kBitReads, 48, 76800, 0}},
      {"warm", NoiseMode::kSramWeight, kChromatic, true,
       "+++--------++-+--+--+--+", "+++--------++-+--+--+--+", -98, -98, 0,
       555, 3062, 1738, 2400, {kMacs, kBitReads, 96, 76800, 1614}},
  };
  const auto model = random_model(24, 0xA0F1);
  // SRAM spin noise has no input register to corrupt here: a ConfigError
  // under either group strategy, not a silent greedy descent.
  for (const auto strategy : {kChromatic, kBlocks}) {
    for (const bool memo : {true, false}) {
      auto config = base_config();
      config.noise = NoiseMode::kSramSpin;
      config.strategy = strategy;
      config.group_block = 8;
      config.memoize_partial_sums = memo;
      config.record_trace = true;
      EXPECT_THROW(GenericAnnealer(config).solve(model), ConfigError)
          << (memo ? "memo" : "recompute");
    }
  }
  for (const Pin& pin : pins) {
    for (const bool memo : {true, false}) {
      SCOPED_TRACE(std::string(pin.name) + (memo ? " memo" : " recompute"));
      auto config = base_config();
      config.noise = pin.noise;
      config.strategy = pin.strategy;
      config.group_block = 8;
      config.memoize_partial_sums = memo;
      config.record_trace = !pin.warm;
      if (pin.warm) {
        for (std::size_t v = 0; v < model.size(); ++v) {
          config.initial_spins.push_back(v % 3 == 0 ? 1 : -1);
        }
      }
      const auto r = GenericAnnealer(config).solve(model);
      const long long trace_sum =
          std::accumulate(r.trace.begin(), r.trace.end(), 0LL);
      EXPECT_EQ(spin_string(r.spins), pin.spins);
      EXPECT_EQ(spin_string(r.best_spins), pin.best_spins);
      EXPECT_EQ(r.energy_hw, pin.energy_hw);
      EXPECT_EQ(r.best_energy_hw, pin.best_energy_hw);
      EXPECT_EQ(trace_sum, pin.trace_sum);
      EXPECT_EQ(r.flips, pin.flips);
      EXPECT_EQ(r.memo_hits, memo ? pin.memo_hits : 0U);
      EXPECT_EQ(r.memo_misses, memo ? pin.memo_misses : 0U);
      EXPECT_EQ(r.update_cycles, pin.update_cycles);
      EXPECT_EQ(r.storage, pin.storage);
    }
  }
}

}  // namespace
}  // namespace cim::anneal
