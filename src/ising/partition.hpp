// Spin-grouping (clustering) strategies for the generic Ising annealer.
//
// The clustered-window annealer updates spins group by group; each group
// becomes one weight window (a column block of the coupling matrix) in
// SRAM. The grouping is a quality/parallelism trade the TAXI line of
// work benchmarks explicitly, so it is a strategy hook here:
//
//   kChromatic    greedy colouring of the interaction graph — groups are
//                 independent sets, so all members of a group update in
//                 one hardware cycle (the paper's parallel update).
//   kIndexBlocks  fixed-width index blocks — the no-information baseline.
//
// Only kChromatic's groups are mutually non-interacting; the annealer
// charges one update cycle per member for kIndexBlocks (sequential within
// a window).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ising/generic.hpp"
#include "ising/model.hpp"

namespace cim::ising {

enum class GroupStrategy {
  kChromatic,
  kIndexBlocks,
};

/// A partition of [0, n) into ordered groups; the annealer processes
/// groups in index order and members in the listed order.
struct Partition {
  GroupStrategy strategy = GroupStrategy::kChromatic;
  /// True when groups are independent sets (chromatic): members update
  /// in one hardware cycle.
  bool parallel_safe = false;
  std::vector<std::vector<SpinIndex>> groups;

  std::size_t size() const { return groups.size(); }
  std::size_t max_group() const;
};

/// Builds the partition for `model`. `block` bounds the group width of
/// kIndexBlocks (must be >= 1; ignored by kChromatic).
/// Deterministic: depends only on the model and the arguments.
Partition build_partition(const GenericModel& model, GroupStrategy strategy,
                          std::uint32_t block = 64);

const char* group_strategy_name(GroupStrategy strategy);
std::optional<GroupStrategy> parse_group_strategy(const std::string& name);
std::vector<GroupStrategy> all_group_strategies();

}  // namespace cim::ising
