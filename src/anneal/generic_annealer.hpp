// Generic QUBO/Ising models on the noisy digital-CIM substrate.
//
// The front-end counterpart of MaxCutAnnealer: any GenericModel (graph
// files, penalty-encoded colouring/knapsack, arbitrary sparse J/h
// instances) is mapped to integer coefficient planes (map_to_hardware)
// and annealed with the same hardware primitives — signed couplings as a
// positive and a negative 8-bit magnitude plane, spins as the 0/1 input
// register, one spin update = column MAC + sign decision, the §IV.B
// schedule annealing the weight noise away.
//
// Two generalisations over the Max-Cut path:
//
//   * External fields ride in an always-on bias row: windows carry
//     rows = n + 1, row n stores |h_v| (by sign plane) and its input bit
//     is permanently 1, so the 2·MAC − row_sum identity yields
//     field_v = Σ_u W_uv σ_u + F_v with no ancilla spin.
//   * The spin grouping is a strategy hook (ising/partition.hpp): each
//     group becomes one weight window (a column block); kChromatic
//     groups update all members in one hardware cycle, the blocked
//     strategies charge one cycle per member.
#pragma once

#include <cstdint>
#include <vector>

#include "anneal/kernel_config.hpp"
#include "anneal/noise_source.hpp"
#include "cim/storage.hpp"
#include "ising/generic.hpp"
#include "ising/partition.hpp"
#include "noise/schedule.hpp"
#include "noise/sram_model.hpp"

namespace cim::anneal {

struct GenericAnnealConfig {
  noise::AnnealSchedule::Params schedule;  ///< sweeps = total_iterations
  noise::SramNoiseParams sram;
  NoiseMode noise = NoiseMode::kSramWeight;
  /// Clustering strategy for the window partition (the TAXI-style
  /// quality/parallelism axis the bench sweeps).
  ising::GroupStrategy strategy = ising::GroupStrategy::kChromatic;
  std::uint32_t group_block = 64;  ///< width bound for blocked strategies
  /// Incremental local fields over all windows (DESIGN.md §16): rebuilt
  /// after each write-back, updated by row u of every window when spin u
  /// flips; each update still charges one column MAC per plane.
  /// Bit-identical to the recompute path, which stays the oracle.
  bool memoize_partial_sums = default_memoize();
  std::uint32_t weight_bits = 8;
  std::uint64_t seed = 1;
  /// Optional warm start: full ±1 assignment replacing the random
  /// initial state (one spin per model variable).
  std::vector<ising::Spin> initial_spins;
  bool record_trace = false;
};

struct GenericResult {
  std::vector<ising::Spin> spins;       ///< final state
  std::vector<ising::Spin> best_spins;  ///< lowest-energy state seen
  /// Exact integer energies in hardware units (mapping.energy_hw of the
  /// unquantised mapping — evaluation is exact even when the stored
  /// planes had to be scaled down).
  long long energy_hw = 0;
  long long best_energy_hw = 0;
  double energy = 0.0;  ///< model units: offset + hw/multiplier
  double best_energy = 0.0;
  std::size_t sweeps = 0;
  std::size_t flips = 0;
  std::size_t group_count = 0;  ///< windows in the partition
  std::size_t max_group = 0;    ///< widest window (columns)
  bool parallel_groups = false; ///< chromatic partition (1 cycle/group)
  /// True when every hardware coefficient fit weight_bits verbatim — the
  /// anneal dynamics then see the model exactly (no quantisation loss).
  bool exact_mapping = false;
  /// Same meaning as MaxCutResult: hits are evaluations with no flip or
  /// write-back since the spin's previous one; both 0 with memo off.
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  std::uint64_t update_cycles = 0;
  hw::StorageCounters storage;
  std::vector<long long> trace;  ///< energy_hw after each sweep (optional)
};

class GenericAnnealer {
 public:
  explicit GenericAnnealer(GenericAnnealConfig config);

  const GenericAnnealConfig& config() const { return config_; }

  GenericResult solve(const ising::GenericModel& model) const;

 private:
  GenericAnnealConfig config_;
};

}  // namespace cim::anneal
