// Inter-array interconnect simulation (Fig. 5(e)).
//
// Clusters map onto arrays ten-windows-at-a-time; during a chromatic
// update phase, a cluster whose ring neighbour lives on the adjacent
// array needs that neighbour's p boundary bits across the array edge —
// downstream for solid (even-position) phases, upstream for dash phases.
// This module simulates the transfer schedule for one level and verifies
// the paper's claims: only boundary data moves, each link carries at most
// p bits per phase, and the two directions never collide (they occupy
// different phases).
//
// No solve path calls this module; it stays as the executable check of
// those Fig. 5(e) claims, which tests/test_cim_pipeline_interconnect.cpp
// pins (Interconnect.OnlyBoundaryBitsMove, LinkLoadIsAtMostPPerPhase,
// DirectionsSeparateByPhase). Delete it only with that claim.
#pragma once

#include <cstdint>
#include <vector>

namespace cim::hw {

struct InterconnectConfig {
  std::size_t clusters = 0;          ///< ring length at this level
  std::uint32_t p = 3;               ///< boundary width (bits per transfer)
  std::size_t windows_per_array = 10;///< 5×2 windows per array
};

struct LinkActivity {
  std::size_t link = 0;          ///< boundary between array `link` and `link+1`
  std::uint64_t downstream_bits = 0;
  std::uint64_t upstream_bits = 0;
};

struct InterconnectReport {
  std::size_t arrays = 0;
  std::size_t links = 0;               ///< arrays − 1 chain links
  std::uint64_t total_bits_per_iteration = 0;
  std::uint64_t max_link_bits_per_phase = 0;
  /// Ring-closure traffic between the first and last array; routed on a
  /// dedicated return path, not the chain links.
  std::uint64_t wrap_bits_per_iteration = 0;
  bool contention_free = true;  ///< no link carries both directions in a phase
  std::vector<LinkActivity> per_link;  ///< accumulated over one iteration
};

/// Simulates one full update iteration (solid phase + dash phase) of a
/// ring of `clusters` clusters and reports the link traffic.
InterconnectReport simulate_iteration(const InterconnectConfig& config);

}  // namespace cim::hw
