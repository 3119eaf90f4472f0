// Single-level grouping primitives used by the hierarchy builder.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/point.hpp"
#include "util/random.hpp"

namespace cim::cluster {

/// Groups `points` into clusters of exactly `p` members by greedy
/// seed-plus-nearest assignment (one ragged tail cluster when the count is
/// not divisible). Returns member-index lists.
std::vector<std::vector<std::uint32_t>> group_fixed(
    const std::vector<geo::Point>& points, std::size_t p, util::Rng& rng);

/// Agglomerative grouping by rounds of mutual-nearest-neighbour merging:
/// reduces `points` to at most `target_count` groups, never exceeding
/// `max_size` members per group (pass SIZE_MAX for unlimited). Weights are
/// per-point populations used for centroid updates.
std::vector<std::vector<std::uint32_t>> group_agglomerative(
    const std::vector<geo::Point>& points,
    const std::vector<std::uint32_t>& weights, std::size_t target_count,
    std::size_t max_size);

}  // namespace cim::cluster
