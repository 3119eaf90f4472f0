// Max-Cut on the noisy digital-CIM substrate.
//
// Maps a Max-Cut instance onto the same hardware primitives as the TSP
// annealer: couplings live in noisy SRAM weight storage (8-bit magnitudes;
// signed graphs use a positive and a negative magnitude plane, subtracted
// digitally — a standard digital-CIM signed-weight trick), spins are the
// input register, and one spin update is a column MAC followed by a sign
// decision. Non-adjacent spins (a graph colouring) update in parallel,
// and the §IV.B schedule anneals the weight noise away.
//
// This makes the Table III comparison executable: the competitors'
// problem class (Max-Cut, complete or sparse graphs) runs on this design's
// machinery with the same entropy source.
#pragma once

#include <cstdint>
#include <vector>

#include "anneal/kernel_config.hpp"
#include "anneal/noise_source.hpp"
#include "cim/storage.hpp"
#include "ising/maxcut.hpp"
#include "noise/schedule.hpp"
#include "noise/sram_model.hpp"

namespace cim::anneal {

struct MaxCutConfig {
  noise::AnnealSchedule::Params schedule;  ///< sweeps = total_iterations
  noise::SramNoiseParams sram;
  NoiseMode noise = NoiseMode::kSramWeight;
  /// Incremental local fields (DESIGN.md §16): every vertex's
  /// (MAC+ − MAC−)(σ+) and row sum are rebuilt after each write-back and
  /// updated by one weight row per flip, instead of two column MACs per
  /// update. Each update still charges the hardware read of both columns.
  /// Bit-identical to the recompute path (cuts, flip sequence,
  /// StorageCounters), which stays the oracle. Defaults from
  /// CIMANNEAL_MEMOIZE (unset → on).
  bool memoize_partial_sums = default_memoize();
  std::uint32_t weight_bits = 8;
  std::uint64_t seed = 1;
  /// Optional warm start (src/store): a full ±1 spin assignment from a
  /// previous solve. When non-empty it must have one spin per vertex;
  /// it replaces the random initial assignment. Deterministic for a given
  /// assignment + seed, but not bit-identical to a cold solve.
  std::vector<ising::Spin> initial_spins;
  bool record_trace = false;
};

struct MaxCutResult {
  std::vector<ising::Spin> spins;
  long long cut = 0;        ///< final cut value
  long long best_cut = 0;   ///< best cut seen during the anneal
  std::size_t sweeps = 0;
  std::size_t flips = 0;
  std::size_t color_count = 0;  ///< chromatic classes (parallel groups)
  /// Field evaluations with no flip or write-back since the vertex's
  /// previous evaluation (hits) vs. the rest (misses); hits + misses =
  /// sweeps × n. Both 0 when memoization is off.
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  std::uint64_t update_cycles = 0;
  hw::StorageCounters storage;
  std::vector<long long> trace;  ///< cut after each sweep (optional)
};

class MaxCutAnnealer {
 public:
  explicit MaxCutAnnealer(MaxCutConfig config);

  const MaxCutConfig& config() const { return config_; }

  MaxCutResult solve(const ising::MaxCutProblem& problem) const;

 private:
  MaxCutConfig config_;
};

}  // namespace cim::anneal
