// The spin-sweep core of the Ising annealers (DESIGN.md §16).
//
// MaxCutAnnealer and GenericAnnealer are thin front ends over one
// datapath: signed couplings J stored as a pos and a neg 8-bit magnitude
// plane per weight window, spins as the 0/1 input register σ+, and one
// spin update = a column MAC per plane, then the sign decision
// σ_v ← sign(field_v) on field_v = 2·(MAC+ − MAC−)(σ+) − row_sum_v
// (energy E = −Σ J σσ, so ΔE = 2σ_v·field_v), under the §IV.B write-back
// schedule. A front end builds and writes its planes, then hands
// SpinSweep a SpinLayout; SpinSweep owns the rest — seeding, initial
// spins, σ+, field evaluation, the noise-mode switch, the flip, cycle,
// memo and StorageCounters bookkeeping, the per-sweep trace and the
// telemetry counters. The epoch loop and its write-backs belong to the
// planes' hw::StorageBatch (run_epochs), which the TSP annealer's
// level solve shares. A front end's SweepHooks name its objective
// and add its own per-sweep work (best-state tracking).
//
// LocalFields evaluates the fields. With memoization on it keeps both
// terms for every spin in flat arrays — window w's column c sits at
// offset[w] + c — and keeps them exact incrementally:
//
//   * rebuild() recomputes row sums and MACs from σ+ in one row-major
//     pass over the settled planes (after every write-back);
//   * flip() adds ±(pos − neg) of the flipped spin's row to every MAC —
//     the whole row, because a pseudo-read can settle a non-edge weight
//     to a nonzero value, which the column MAC reads too.
//
// With memoization off it re-reduces both columns on every evaluation,
// and the row sums with an all-ones MAC per column at each rebuild: the
// oracle the memo must match bit for bit (spins, flips, counters).
//
// The hardware cost is the paper's either way: every field() charges one
// column MAC per plane and every rebuild() one all-ones MAC per column
// per plane (the memo through WeightStorage::charge_repeat_macs(), which
// needs weights that are pure between write-backs).
//
// Hit/miss accounting (memo on only): an evaluation is a hit when no flip
// and no rebuild happened since that spin's previous evaluation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "anneal/kernel_config.hpp"
#include "anneal/noise_source.hpp"
#include "cim/storage.hpp"
#include "ising/model.hpp"
#include "noise/schedule.hpp"
#include "noise/sram_model.hpp"
#include "util/random.hpp"

namespace cim::anneal {

/// The settings every Ising front end shares (MaxCutConfig is this type;
/// GenericAnnealConfig adds the group strategy).
struct IsingAnnealConfig {
  noise::AnnealSchedule::Params schedule;  ///< sweeps = total_iterations
  noise::SramNoiseParams sram;
  NoiseMode noise = NoiseMode::kSramWeight;
  /// Incremental local fields (see LocalFields): rebuilt after each
  /// write-back and updated by one weight row per window when a spin
  /// flips, instead of two column MACs per update. Each update still
  /// charges the hardware read of both columns. Bit-identical to the
  /// recompute path, which stays the oracle. Defaults from
  /// CIMANNEAL_MEMOIZE (unset → on).
  bool memoize_partial_sums = default_memoize();
  std::uint32_t weight_bits = 8;
  std::uint64_t seed = 1;
  /// Optional warm start (src/store): a full ±1 assignment, one spin per
  /// variable, replacing the random initial state. Deterministic for a
  /// given assignment + seed, but not bit-identical to a cold solve.
  std::vector<ising::Spin> initial_spins;
  bool record_trace = false;
};

/// The outcome fields every Ising front end shares.
struct SpinSweepResult {
  std::vector<ising::Spin> spins;  ///< final state
  std::size_t sweeps = 0;
  std::size_t flips = 0;
  /// Field evaluations with no flip or write-back since the spin's
  /// previous evaluation (hits) vs. the rest (misses); hits + misses =
  /// sweeps × n. Both 0 when memoization is off.
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  std::uint64_t update_cycles = 0;
  hw::StorageCounters storage;  ///< summed over every plane
  std::vector<long long> trace;  ///< objective after each sweep (optional)
};

class LocalFields {
 public:
  /// One pos/neg magnitude plane pair; all windows share the row count.
  struct Window {
    hw::WeightStorage* pos = nullptr;
    hw::WeightStorage* neg = nullptr;
  };

  /// σ+ starts from `spins` (row v is spin v); rows past the spins (a
  /// bias row) are held at 1.
  LocalFields(std::vector<Window> windows, std::span<const ising::Spin> spins,
              bool memoize);

  /// Recomputes every row sum (and, memoized, every MAC) from the
  /// settled planes and charges the all-ones row-sum MACs.
  void rebuild();

  /// field = 2·MAC − row_sum of column `col` in window `window`; charges
  /// one MAC per plane and, memoized, counts a hit or a miss.
  std::int64_t field(std::size_t window, std::uint32_t col);

  /// Spin `row` flipped to `next`.
  void flip(std::uint32_t row, ising::Spin next);

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

 private:
  std::span<std::int64_t> window_span(std::vector<std::int64_t>& values,
                                      std::size_t window);

  std::vector<Window> windows_;
  bool memoize_;
  std::vector<std::uint8_t> sigma_plus_;
  /// The all-ones input of the recompute path's row-sum MACs.
  std::vector<std::uint8_t> ones_;
  std::vector<std::size_t> offset_;  ///< first slot of each window
  std::vector<std::int64_t> mac_;
  std::vector<std::int64_t> row_sum_;
  // Accounting only: the generation advances on every flip and rebuild.
  std::vector<std::uint64_t> stamp_;  // 0 never matches (gens start at 1)
  std::uint64_t generation_ = 1;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// Where the spins of one solve live and in which order they update.
struct SpinLayout {
  /// Every weight window's pos/neg plane pair (J > 0 in pos).
  std::vector<LocalFields::Window> windows;
  /// Spin v's column is col_of[v] of window window_of[v].
  std::vector<std::uint32_t> window_of;
  std::vector<std::uint32_t> col_of;
  /// Update groups, each in update order. A group marked one-cycle (an
  /// independent set) costs one hardware cycle, else one per member.
  std::span<const std::vector<ising::SpinIndex>> groups;
  bool group_in_one_cycle = false;
  /// Scales the LFSR temperature by √max_degree.
  std::uint32_t max_degree = 0;
};

/// What a front end adds to each sweep, and its telemetry names.
struct SweepHooks {
  /// `<prefix>.sweep` instants and the `<prefix>.{solves,sweeps,flips,
  /// memo_hits,memo_misses,update_cycles}` counters.
  std::string prefix;
  /// The key of the objective in a `<prefix>.sweep` instant (a literal).
  const char* objective_key = "";
  /// Runs after every sweep (may be empty).
  std::function<void()> after_sweep;
  /// The objective after a sweep (a cut, an energy). With record_trace on
  /// it is called after after_sweep() and appended to result.trace; the
  /// `<prefix>.sweep` instants of an epoch's sweeps are emitted, in sweep
  /// order, once the epoch's sweeps have run.
  std::function<long long()> objective;
};

class SpinSweep {
 public:
  /// Seeds the SRAM cell model and the RNG from config.seed; `config`
  /// must outlive the sweep. Rejects NoiseMode::kSramSpin (ConfigError):
  /// the sweep has no input register for spin noise to corrupt.
  explicit SpinSweep(const IsingAnnealConfig& config);

  /// A rows×cols weight plane at `cell_base`, noisy under
  /// kSramWeight and exact otherwise.
  std::unique_ptr<hw::WeightStorage> make_plane(std::uint32_t rows,
                                                std::uint32_t cols,
                                                std::uint64_t cell_base) const;

  /// The warm start (validated: n entries of ±1) or n random spins.
  std::vector<ising::Spin> initial_spins(std::size_t n);

  /// Runs every sweep of the schedule from result.spins through
  /// batch.run_epochs() (`batch` holds every plane of `layout`), which
  /// settles every noisy epoch in one pass and commits each epoch's
  /// write-back before its sweeps. A write-back charges windows × rows
  /// cycles, then each group updates in order.
  /// Fills every SpinSweepResult field and publishes hooks.prefix's
  /// counters.
  void run(const SpinLayout& layout, hw::StorageBatch& batch,
           SpinSweepResult& result, const SweepHooks& hooks);

 private:
  const IsingAnnealConfig& config_;
  noise::SramCellModel cell_model_;
  util::Rng rng_;
};

}  // namespace cim::anneal
