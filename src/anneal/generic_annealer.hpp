// Generic QUBO/Ising models on the noisy digital-CIM substrate.
//
// Any GenericModel (graph files, penalty-encoded colouring/knapsack,
// arbitrary sparse J/h instances) is mapped to integer coefficient planes
// (map_to_hardware) and annealed by the spin-sweep core
// (local_fields.hpp), the same datapath as MaxCutAnnealer — signed
// couplings as a positive and a negative 8-bit magnitude plane, spins as
// the 0/1 input register, one spin update = column MAC + sign decision,
// the §IV.B schedule annealing the weight noise away.
//
// Two generalisations over the Max-Cut front end:
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

#include "anneal/local_fields.hpp"
#include "ising/generic.hpp"
#include "ising/partition.hpp"

namespace cim::anneal {

struct GenericAnnealConfig : IsingAnnealConfig {
  /// Clustering strategy for the window partition (the TAXI-style
  /// quality/parallelism axis the bench sweeps).
  ising::GroupStrategy strategy = ising::GroupStrategy::kChromatic;
  std::uint32_t group_block = 64;  ///< width bound for blocked strategies
};

/// `trace` holds energy_hw after each sweep.
struct GenericResult : SpinSweepResult {
  std::vector<ising::Spin> best_spins;  ///< lowest-energy state seen
  /// Exact integer energies in hardware units (mapping.energy_hw of the
  /// unquantised mapping — evaluation is exact even when the stored
  /// planes had to be scaled down).
  long long energy_hw = 0;
  long long best_energy_hw = 0;
  double energy = 0.0;  ///< model units: offset + hw/multiplier
  double best_energy = 0.0;
  std::size_t group_count = 0;  ///< windows in the partition
  std::size_t max_group = 0;    ///< widest window (columns)
  bool parallel_groups = false; ///< chromatic partition (1 cycle/group)
  /// True when every hardware coefficient fit weight_bits verbatim — the
  /// anneal dynamics then see the model exactly (no quantisation loss).
  bool exact_mapping = false;
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
