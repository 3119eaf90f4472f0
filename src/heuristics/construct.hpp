// Tour construction heuristics.
#pragma once

#include <cstdint>

#include "tsp/instance.hpp"
#include "tsp/neighbors.hpp"
#include "tsp/tour.hpp"

namespace cim::heuristics {

/// Nearest-neighbour construction from `start`. O(n log n) with a kd-tree
/// for coordinate instances, O(n²) for explicit matrices.
tsp::Tour nearest_neighbor(const tsp::Instance& instance,
                           tsp::CityId start = 0);

/// Greedy-edge construction: repeatedly add the shortest edge that keeps
/// degree ≤ 2 and creates no premature cycle. Uses candidate edges from
/// k-nearest neighbours; falls back to nearest-neighbour completion for
/// cities left with degree < 2.
tsp::Tour greedy_edge(const tsp::Instance& instance, std::size_t k = 10);

/// Greedy-edge construction over caller-built candidate lists, so a
/// pipeline that also needs them for local search builds them once. The
/// tour is the same as greedy_edge(instance, nbrs.k()).
tsp::Tour greedy_edge(const tsp::Instance& instance,
                      const tsp::NeighborLists& nbrs);

/// Uniformly random tour.
tsp::Tour random_tour(const tsp::Instance& instance, std::uint64_t seed);

}  // namespace cim::heuristics
