// Annealing noise sources (§IV.B and the related-work ablations).
//
//   * kSramWeight — the paper's contribution: process variation corrupts
//     the *weights*; spatial variation becomes temporal noise because each
//     update addresses different cells. Acceptance is a plain energy
//     comparison — all stochasticity enters through the weights.
//   * kSramSpin   — the [4]-style design the paper argues against: the
//     same spatially fixed error pattern is applied to the *spin inputs*.
//     With frozen weights the dynamics are deterministic and converge
//     poorly; reproduced for the ablation bench. TSP annealer only: the
//     Max-Cut and generic Ising annealers reject it (ConfigError).
//   * kLfsr       — conventional digital annealing: exact weights, a
//     pseudo-random number generator drives Metropolis acceptance. The
//     temperature is matched to the SRAM noise magnitude of the same
//     schedule phase so the comparison is noise-equivalent.
//   * kNone       — greedy descent (no noise); shows why annealing is
//     needed at all.
#pragma once

#include <cstdint>
#include <string>

#include "noise/schedule.hpp"
#include "noise/sram_model.hpp"

namespace cim::anneal {

enum class NoiseMode { kSramWeight, kSramSpin, kLfsr, kNone };

const char* noise_mode_name(NoiseMode mode);

/// Standard deviation of the quantised-weight error that `phase` induces
/// on one stored weight: LSB flips are ±2^b events with the phase's
/// per-cell flip rate.
double weight_noise_sigma(const noise::SramCellModel& model,
                          const noise::SchedulePhase& phase);

/// Metropolis temperature (in quantised-energy units) equivalent to the
/// SRAM weight noise of `phase` on a swap energy difference (which sums
/// four MACs of two weights each).
double equivalent_temperature(const noise::SramCellModel& model,
                              const noise::SchedulePhase& phase);

/// Spatially fixed spin-error filter used by kSramSpin: a register cell's
/// stored bit settles toward its preferred value exactly like a weight
/// cell would. `spin_cell_id` must identify the physical register bit, not
/// the logical spin value.
bool filter_spin_bit(const noise::SramCellModel& model,
                     std::uint64_t spin_cell_id,
                     const noise::SchedulePhase& phase, bool bit);

}  // namespace cim::anneal
