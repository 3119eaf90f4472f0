#include "anneal/maxcut_annealer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "noise/schedule.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace cim::anneal {
namespace {

MaxCutConfig base_config() {
  MaxCutConfig config;
  config.schedule.total_iterations = 200;
  config.schedule.iterations_per_step = 25;
  config.seed = 1;
  return config;
}

TEST(MaxCutAnnealer, NearOptimalOnRing) {
  // Rings carry marginally stable domain walls (field = 0 at a wall, and
  // the hardware keeps the spin on ties), so a single run may retain one
  // wall pair; across a few seeds the optimum must appear.
  const auto problem = ising::ring_maxcut(16);
  long long best = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto config = base_config();
    config.seed = seed;
    const auto result = MaxCutAnnealer(config).solve(problem);
    EXPECT_EQ(result.cut, problem.cut_value(result.spins));
    EXPECT_GE(result.best_cut, 14);  // at most one wall pair left
    best = std::max(best, result.best_cut);
  }
  EXPECT_EQ(best, 16);
}

TEST(MaxCutAnnealer, BipartiteFullCut) {
  std::vector<ising::WeightedEdge> edges;
  for (ising::SpinIndex a = 0; a < 8; ++a) {
    for (ising::SpinIndex b = 8; b < 16; ++b) edges.push_back({a, b, 1});
  }
  const ising::MaxCutProblem k88("k88", 16, std::move(edges));
  const auto result = MaxCutAnnealer(base_config()).solve(k88);
  EXPECT_EQ(result.cut, 64);
}

TEST(MaxCutAnnealer, NearOptimalOnSmallRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto problem = ising::random_maxcut(16, 0.4, 30 + seed, 4);
    const long long optimal = ising::brute_force_maxcut(problem);
    auto config = base_config();
    config.seed = seed + 1;
    const auto result = MaxCutAnnealer(config).solve(problem);
    EXPECT_GE(result.best_cut * 20, optimal * 19)  // within 5%
        << "seed " << seed;
    EXPECT_LE(result.best_cut, optimal);
  }
}

TEST(MaxCutAnnealer, CompetitiveWithGreedyOnSparseGraphs) {
  const auto problem = ising::random_maxcut(200, 0.03, 5, 3);
  const auto result = MaxCutAnnealer(base_config()).solve(problem);
  const long long greedy = ising::greedy_maxcut(problem, 1);
  // Annealing with noise should at least match a single greedy descent.
  EXPECT_GE(result.best_cut * 100, greedy * 97);
}

TEST(MaxCutAnnealer, SignedCompleteGraph) {
  // The STATICA-style shape: K_64 with ±1 couplings.
  const auto problem = ising::complete_maxcut(64, 7);
  const auto result = MaxCutAnnealer(base_config()).solve(problem);
  EXPECT_EQ(result.cut, problem.cut_value(result.spins));
  EXPECT_GT(result.cut, 0);
}

TEST(MaxCutAnnealer, ChromaticClassesBoundCycles) {
  const auto ring = ising::ring_maxcut(100);  // 2-colourable
  const auto result = MaxCutAnnealer(base_config()).solve(ring);
  EXPECT_EQ(result.color_count, 2U);
  // Cycles: 2 per sweep + write-back rows; far below n per sweep.
  EXPECT_LT(result.update_cycles,
            result.sweeps * 3 + 8 * 100 + 100);
}

TEST(MaxCutAnnealer, DeterministicPerSeed) {
  const auto problem = ising::random_maxcut(60, 0.1, 11, 2);
  const auto a = MaxCutAnnealer(base_config()).solve(problem);
  const auto b = MaxCutAnnealer(base_config()).solve(problem);
  EXPECT_EQ(a.cut, b.cut);
  EXPECT_EQ(a.spins, b.spins);
}

TEST(MaxCutAnnealer, TraceRecordsSweeps) {
  auto config = base_config();
  config.record_trace = true;
  const auto problem = ising::random_maxcut(40, 0.2, 13, 2);
  const auto result = MaxCutAnnealer(config).solve(problem);
  EXPECT_EQ(result.trace.size(), result.sweeps);
  EXPECT_GE(result.trace.back(), result.trace.front());
}

TEST(MaxCutAnnealer, NoiseEscapesGreedyPlateaus) {
  // Averaged over instances, the noisy annealer should beat pure
  // deterministic sign updates (kNone gets stuck in the first local
  // optimum / oscillation basin).
  long long noisy_total = 0;
  long long greedy_total = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto problem = ising::random_maxcut(80, 0.1, 50 + seed, 3);
    auto noisy_cfg = base_config();
    noisy_cfg.seed = seed + 1;
    auto greedy_cfg = noisy_cfg;
    greedy_cfg.noise = NoiseMode::kNone;
    noisy_total += MaxCutAnnealer(noisy_cfg).solve(problem).best_cut;
    greedy_total += MaxCutAnnealer(greedy_cfg).solve(problem).best_cut;
  }
  EXPECT_GE(noisy_total, greedy_total);
}

TEST(MaxCutAnnealer, StorageCountersPopulated) {
  const auto problem = ising::random_maxcut(50, 0.2, 17, 2);
  const auto result = MaxCutAnnealer(base_config()).solve(problem);
  EXPECT_GT(result.storage.macs, 0U);
  EXPECT_GT(result.storage.writeback_events, 0U);
  EXPECT_GT(result.storage.pseudo_read_flips, 0U);
  EXPECT_GT(result.flips, 0U);
}

TEST(MaxCutAnnealer, InvalidConfigThrows) {
  MaxCutConfig bad = base_config();
  bad.weight_bits = 0;
  EXPECT_THROW(MaxCutAnnealer{bad}, ConfigError);
}

TEST(MaxCutAnnealer, EmptyProblemThrows) {
  // A zero- or one-vertex graph would build a degenerate CIM window; the
  // problem type itself fails fast before any storage is sized.
  EXPECT_THROW(ising::MaxCutProblem("empty", 0, {}), ConfigError);
  EXPECT_THROW(ising::MaxCutProblem("one", 1, {}), ConfigError);
}

TEST(MaxCutAnnealer, MemoMatchesRecomputeExactly) {
  // The per-vertex partial-sum memo must be a pure optimisation: same
  // flip sequence, same cuts, same hardware counters (a hit charges the
  // full read cost of both planes), for every noise mode the annealer
  // takes; both paths reject SRAM spin noise.
  const auto problem = ising::random_maxcut(90, 0.15, 21, 3);
  for (const bool memoize : {true, false}) {
    auto config = base_config();
    config.noise = NoiseMode::kSramSpin;
    config.memoize_partial_sums = memoize;
    EXPECT_THROW(MaxCutAnnealer(config).solve(problem), ConfigError);
  }
  for (const NoiseMode mode :
       {NoiseMode::kNone, NoiseMode::kSramWeight, NoiseMode::kLfsr}) {
    auto config = base_config();
    config.noise = mode;
    config.record_trace = true;
    config.memoize_partial_sums = true;
    const auto memo = MaxCutAnnealer(config).solve(problem);
    config.memoize_partial_sums = false;
    const auto recompute = MaxCutAnnealer(config).solve(problem);
    EXPECT_EQ(memo.spins, recompute.spins) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(memo.cut, recompute.cut);
    EXPECT_EQ(memo.best_cut, recompute.best_cut);
    EXPECT_EQ(memo.flips, recompute.flips);
    EXPECT_EQ(memo.trace, recompute.trace);
    EXPECT_EQ(memo.storage.macs, recompute.storage.macs);
    EXPECT_EQ(memo.storage.mac_bit_reads, recompute.storage.mac_bit_reads);
    EXPECT_EQ(memo.storage.writeback_bits, recompute.storage.writeback_bits);
    EXPECT_EQ(memo.storage.pseudo_read_flips,
              recompute.storage.pseudo_read_flips);
    // Every vertex is evaluated once per sweep; each evaluation is a
    // hit or a miss with the memo on, neither with it off.
    EXPECT_EQ(memo.memo_hits + memo.memo_misses,
              memo.sweeps * problem.size());
    EXPECT_GT(memo.memo_hits, 0U);
    EXPECT_EQ(recompute.memo_hits, 0U);
    EXPECT_EQ(recompute.memo_misses, 0U);
  }
}

void expect_identical_runs(const MaxCutResult& memo,
                           const MaxCutResult& recompute, std::size_t n) {
  EXPECT_EQ(memo.spins, recompute.spins);
  EXPECT_EQ(memo.cut, recompute.cut);
  EXPECT_EQ(memo.best_cut, recompute.best_cut);
  EXPECT_EQ(memo.flips, recompute.flips);
  EXPECT_EQ(memo.trace, recompute.trace);
  EXPECT_EQ(memo.color_count, recompute.color_count);
  EXPECT_EQ(memo.update_cycles, recompute.update_cycles);
  EXPECT_EQ(memo.storage.macs, recompute.storage.macs);
  EXPECT_EQ(memo.storage.mac_bit_reads, recompute.storage.mac_bit_reads);
  EXPECT_EQ(memo.storage.writeback_events,
            recompute.storage.writeback_events);
  EXPECT_EQ(memo.storage.writeback_bits, recompute.storage.writeback_bits);
  EXPECT_EQ(memo.storage.pseudo_read_flips,
            recompute.storage.pseudo_read_flips);
  EXPECT_EQ(memo.memo_hits + memo.memo_misses, memo.sweeps * n);
  EXPECT_GT(memo.memo_hits, 0U);
}

TEST(MaxCutAnnealer, MemoMatchesRecomputeOnHardCases) {
  // The incremental fields against the column-MAC oracle where they are
  // easiest to get wrong: hard-stuck cells, planes large enough that each
  // one splits across several pooled write-back tasks (160² > 4 096
  // weights), and the LFSR Metropolis path, each compared on every
  // counter.
  struct Case {
    const char* name;
    std::size_t n;
    NoiseMode noise;
    double stuck_cell_rate;
  };
  for (const Case& c : {Case{"stuck", 90, NoiseMode::kSramWeight, 0.02},
                        Case{"chunked", 160, NoiseMode::kSramWeight, 0.0},
                        Case{"lfsr", 90, NoiseMode::kLfsr, 0.0}}) {
    SCOPED_TRACE(c.name);
    const auto problem = ising::random_maxcut(c.n, 0.08, 23, 5, true);
    auto config = base_config();
    config.noise = c.noise;
    config.sram.stuck_cell_rate = c.stuck_cell_rate;
    config.record_trace = true;
    config.memoize_partial_sums = true;
    const auto memo = MaxCutAnnealer(config).solve(problem);
    config.memoize_partial_sums = false;
    const auto recompute = MaxCutAnnealer(config).solve(problem);
    expect_identical_runs(memo, recompute, problem.size());
  }
}

TEST(MaxCutAnnealer, NoisyNonEdgeWeightsReachTheField) {
  // A pseudo-read can settle a zero (non-edge) weight's LSBs to 1, and
  // the column MAC reads it. So a flip must update the fields of every
  // column of its row, not only its graph neighbours: this pins that
  // noisy non-edges exist at the annealer's operating point, which is
  // what makes the equivalence tests above fail for a neighbour-only
  // update.
  const auto problem = ising::random_maxcut(60, 0.05, 29, 3, true);
  const auto config = base_config();
  const std::size_t n = problem.size();
  const noise::SramCellModel cell_model(
      config.sram, util::hash_combine(config.seed, 0x4C7));
  auto storage = hw::make_fast_storage(static_cast<std::uint32_t>(n),
                                       static_cast<std::uint32_t>(n),
                                       &cell_model, 0, config.weight_bits);
  // An all-zero image: every nonzero weight after the write-back is a
  // noisy non-edge.
  storage->write(std::vector<std::uint8_t>(n * n, 0));
  storage->write_back(noise::AnnealSchedule(config.schedule).at(0));
  std::size_t noisy_non_edges = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    std::vector<std::int64_t> row(n, 0);
    storage->accumulate_row(hw::RowIndex(r), 1, row);
    noisy_non_edges += static_cast<std::size_t>(
        std::count_if(row.begin(), row.end(),
                      [](std::int64_t w) { return w != 0; }));
  }
  EXPECT_GT(noisy_non_edges, 0U);

  auto memo_config = config;
  memo_config.memoize_partial_sums = true;
  const auto memo = MaxCutAnnealer(memo_config).solve(problem);
  memo_config.memoize_partial_sums = false;
  const auto recompute = MaxCutAnnealer(memo_config).solve(problem);
  expect_identical_runs(memo, recompute, n);
}

TEST(MaxCutAnnealer, WarmStartFromSpinAssignment) {
  // A warm start replaces the random initial spins; starting at a
  // previous solution must be deterministic and end at least as good as
  // the assignment it started from on a frozen-noise re-solve.
  const auto problem = ising::random_maxcut(60, 0.2, 11, 3);
  auto config = base_config();
  const auto cold = MaxCutAnnealer(config).solve(problem);
  config.initial_spins = cold.spins;
  const auto warm_a = MaxCutAnnealer(config).solve(problem);
  const auto warm_b = MaxCutAnnealer(config).solve(problem);
  EXPECT_EQ(warm_a.spins, warm_b.spins);
  EXPECT_EQ(warm_a.cut, warm_b.cut);
  EXPECT_GE(warm_a.best_cut, cold.cut);
}

TEST(MaxCutAnnealer, WarmStartValidation) {
  const auto problem = ising::random_maxcut(16, 0.4, 31, 4);
  auto config = base_config();
  config.initial_spins.assign(8, 1);  // wrong size
  EXPECT_THROW(MaxCutAnnealer(config).solve(problem), ConfigError);
  config.initial_spins.assign(16, 1);
  config.initial_spins[3] = 0;  // not ±1
  EXPECT_THROW(MaxCutAnnealer(config).solve(problem), ConfigError);
  config.initial_spins[3] = -1;
  EXPECT_NO_THROW(MaxCutAnnealer(config).solve(problem));
}

/// Spins as a '+'/'-' string: short to pin, readable in a failure.
std::string spin_string(const std::vector<ising::Spin>& spins) {
  std::string s;
  for (const ising::Spin v : spins) s += v > 0 ? '+' : '-';
  return s;
}

TEST(MaxCutAnnealer, OutcomeIsPinned) {
  // Every outcome field at fixed seeds, for each noise mode with the
  // memo on and off, on a signed-weight graph with a trace, plus a warm
  // start without one. A change to the update rule, the RNG stream, the
  // write-back schedule or the hardware accounting moves at least one of
  // these numbers; memo on and off must reach the same ones.
  struct Pin {
    const char* name;
    NoiseMode noise;
    bool warm;
    std::string spins;
    long long cut;
    long long best_cut;
    long long trace_sum;
    std::size_t flips;
    std::size_t memo_hits;
    std::size_t memo_misses;
    std::uint64_t update_cycles;
    hw::StorageCounters storage;
  };
  const Pin pins[] = {
      {"sram_weight", NoiseMode::kSramWeight, false,
       "-+-++++-+--+++---+--+--+++++++++", 105, 105, 20933, 40, 5376, 1024,
       1256, {13312, 3407872, 16, 131072, 2871}},
      {"lfsr", NoiseMode::kLfsr, false, "-+-++++-+--+++---+--+--+++++++++",
       105, 105, 20912, 40, 5816, 584, 1256, {13312, 3407872, 16, 131072, 0}},
      {"none", NoiseMode::kNone, false, "---++-+-+--+++--++--+---++++++++",
       92, 92, 18365, 18, 6055, 345, 1256, {13312, 3407872, 16, 131072, 0}},
      {"warm", NoiseMode::kSramWeight, true,
       "+---+--+--+--+-++++--+--+--+-++-", 85, 85, 0, 15, 6095, 305, 1256,
       {13312, 3407872, 16, 131072, 2871}},
  };
  const auto problem = ising::random_maxcut(32, 0.2, 41, 5, true);
  // SRAM spin noise has no input register to corrupt here: a ConfigError,
  // not a silent greedy descent.
  for (const bool memo : {true, false}) {
    auto config = base_config();
    config.noise = NoiseMode::kSramSpin;
    config.memoize_partial_sums = memo;
    config.record_trace = true;
    EXPECT_THROW(MaxCutAnnealer(config).solve(problem), ConfigError)
        << (memo ? "memo" : "recompute");
  }
  for (const Pin& pin : pins) {
    for (const bool memo : {true, false}) {
      SCOPED_TRACE(std::string(pin.name) + (memo ? " memo" : " recompute"));
      auto config = base_config();
      config.noise = pin.noise;
      config.memoize_partial_sums = memo;
      config.record_trace = !pin.warm;
      if (pin.warm) {
        for (std::size_t v = 0; v < problem.size(); ++v) {
          config.initial_spins.push_back(v % 3 == 0 ? 1 : -1);
        }
      }
      const auto r = MaxCutAnnealer(config).solve(problem);
      const long long trace_sum =
          std::accumulate(r.trace.begin(), r.trace.end(), 0LL);
      EXPECT_EQ(spin_string(r.spins), pin.spins);
      EXPECT_EQ(r.cut, pin.cut);
      EXPECT_EQ(r.best_cut, pin.best_cut);
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
