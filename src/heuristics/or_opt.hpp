// Or-opt local search: relocates segments of 1–3 consecutive cities to a
// better position (both orientations), using candidate lists. Complements
// 2-opt in the reference pipeline.
#pragma once

#include <cstddef>

#include "tsp/instance.hpp"
#include "tsp/neighbors.hpp"
#include "tsp/tour.hpp"

namespace cim::heuristics {

struct OrOptOptions {
  std::size_t neighbor_k = 10;
  std::size_t max_segment = 3;
  std::size_t max_passes = 32;
  const tsp::NeighborLists* neighbors = nullptr;
};

struct OrOptResult {
  long long initial_length = 0;
  long long final_length = 0;
  std::size_t moves = 0;
  std::size_t passes = 0;
};

/// Improves `tour` in place.
OrOptResult or_opt(const tsp::Instance& instance, tsp::Tour& tour,
                   const OrOptOptions& options = {});

}  // namespace cim::heuristics
