#include "cluster/refine.hpp"

#include <algorithm>
#include <limits>

#include "geo/kdtree.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"

namespace cim::cluster {

namespace {

/// Point queries per pool task (k = 4 searches of about a microsecond).
constexpr std::size_t kQueryGrain = 128;

struct GroupState {
  geo::Point weighted_sum{};
  double weight = 0.0;
  std::size_t size = 0;
  geo::Point centroid() const { return weighted_sum / weight; }
};

}  // namespace

RefineStats refine_groups(const std::vector<geo::Point>& points,
                          const std::vector<std::uint32_t>& weights,
                          std::vector<std::vector<std::uint32_t>>& groups,
                          std::size_t max_size, std::size_t max_rounds) {
  CIM_ASSERT(points.size() == weights.size());
  RefineStats stats;
  if (groups.size() < 2) return stats;

  // Membership map + incremental centroid state.
  std::vector<std::uint32_t> member_of(points.size(), 0);
  std::vector<GroupState> state(groups.size());
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    for (const std::uint32_t p : groups[g]) {
      CIM_ASSERT(p < points.size());
      member_of[p] = g;
      const double w = static_cast<double>(weights[p]);
      state[g].weighted_sum = state[g].weighted_sum + points[p] * w;
      state[g].weight += w;
      ++state[g].size;
    }
    CIM_ASSERT_MSG(state[g].size > 0, "refine_groups: empty input group");
  }

  constexpr std::size_t kProbe = 4;
  // The tree holds one centroid per group and excludes none, so every
  // query returns the same count.
  const std::size_t probe = std::min(kProbe, groups.size());
  std::vector<std::uint32_t> candidates(points.size() * probe);
  for (std::size_t round = 0; round < max_rounds; ++round) {
    ++stats.rounds;
    // Snapshot centroids into a kd-tree for nearest-cluster queries.
    std::vector<geo::Point> centroids(groups.size());
    for (std::uint32_t g = 0; g < groups.size(); ++g) {
      centroids[g] = state[g].centroid();
    }
    const geo::KdTree tree(centroids);

    // Every point's candidate clusters depend only on the snapshot tree,
    // so the queries run on the pool into a flat points × probe buffer;
    // the move pass below stays sequential over it.
    util::parallel_for_chunks(
        points.size(), kQueryGrain, [&](std::size_t begin, std::size_t end) {
          std::vector<std::size_t> nearest;
          for (std::size_t p = begin; p < end; ++p) {
            tree.nearest_k(points[p], probe, nearest);
            CIM_ASSERT(nearest.size() == probe);
            for (std::size_t c = 0; c < probe; ++c) {
              candidates[p * probe + c] =
                  static_cast<std::uint32_t>(nearest[c]);
            }
          }
        });

    std::size_t moves_this_round = 0;
    for (std::uint32_t p = 0; p < points.size(); ++p) {
      const std::uint32_t from = member_of[p];
      if (state[from].size <= 1) continue;  // never empty a cluster
      const double current_d2 =
          geo::squared_distance(points[p], centroids[from]);
      for (std::size_t c = 0; c < probe; ++c) {
        const std::uint32_t to = candidates[p * probe + c];
        if (to == from) break;  // own centroid is nearest: stop
        if (state[to].size >= max_size) continue;
        const double d2 = geo::squared_distance(points[p], centroids[to]);
        if (d2 >= current_d2) break;  // candidates sorted by distance

        // Move p: update membership and incremental centroid state (the
        // snapshot centroids stay fixed within the round, Lloyd-style).
        const double w = static_cast<double>(weights[p]);
        state[from].weighted_sum =
            state[from].weighted_sum - points[p] * w;
        state[from].weight -= w;
        --state[from].size;
        state[to].weighted_sum = state[to].weighted_sum + points[p] * w;
        state[to].weight += w;
        ++state[to].size;
        member_of[p] = to;
        ++moves_this_round;
        break;
      }
    }
    stats.moves += moves_this_round;
    if (moves_this_round == 0) break;
  }

  // Rebuild the group lists from the membership map.
  for (auto& g : groups) g.clear();
  for (std::uint32_t p = 0; p < points.size(); ++p) {
    groups[member_of[p]].push_back(p);
  }
  // Drop groups that somehow emptied (cannot happen by construction, but
  // keep the partition invariant robust).
  std::erase_if(groups, [](const auto& g) { return g.empty(); });
  return stats;
}

}  // namespace cim::cluster
