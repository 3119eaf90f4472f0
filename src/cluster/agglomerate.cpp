#include "cluster/agglomerate.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "geo/kdtree.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/parallel_for.hpp"

namespace cim::cluster {

std::vector<std::vector<std::uint32_t>> group_fixed(
    const std::vector<geo::Point>& points, std::size_t p, util::Rng& rng) {
  const std::size_t m = points.size();
  CIM_REQUIRE(p >= 1, "fixed cluster size must be positive");
  std::vector<std::vector<std::uint32_t>> groups;
  if (p == 1 || m <= p) {
    if (p == 1) {
      groups.resize(m);
      for (std::uint32_t i = 0; i < m; ++i) groups[i] = {i};
    } else {
      groups.emplace_back(m);
      std::iota(groups.back().begin(), groups.back().end(), 0U);
    }
    return groups;
  }

  geo::KdTree tree(points);
  // Random seed order keeps the strategy unbiased across the plane.
  auto seeds = util::random_permutation(m, rng);
  groups.reserve(m / p + 1);
  std::vector<std::size_t> nearest;
  for (const std::uint32_t seed : seeds) {
    if (!tree.is_active(seed)) continue;
    tree.set_active(seed, false);
    std::vector<std::uint32_t> group{seed};
    tree.nearest_k(points[seed], p - 1, nearest);
    for (const std::size_t nb : nearest) {
      group.push_back(static_cast<std::uint32_t>(nb));
      tree.set_active(nb, false);
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

namespace {

/// Partner queries per pool task: a k = 8 search takes about a
/// microsecond, so smaller tasks would be mostly pool overhead.
constexpr std::size_t kQueryGrain = 128;

struct Group {
  std::vector<std::uint32_t> members;
  geo::Point centroid;
  std::uint64_t weight = 0;
  bool active = true;
};

}  // namespace

std::vector<std::vector<std::uint32_t>> group_agglomerative(
    const std::vector<geo::Point>& points,
    const std::vector<std::uint32_t>& weights, std::size_t target_count,
    std::size_t max_size) {
  const std::size_t m = points.size();
  CIM_ASSERT(weights.size() == m);
  CIM_REQUIRE(target_count >= 1, "target cluster count must be positive");
  CIM_REQUIRE(max_size >= 2 || m <= target_count,
              "max cluster size below 2 cannot reduce the level");

  std::vector<Group> groups(m);
  for (std::uint32_t i = 0; i < m; ++i) {
    groups[i].members = {i};
    groups[i].centroid = points[i];
    groups[i].weight = weights[i];
  }
  std::size_t active_count = m;

  constexpr std::size_t kMaxRounds = 64;
  constexpr std::size_t kProbe = 8;  // nearest candidates examined

  for (std::size_t round = 0;
       round < kMaxRounds && active_count > target_count; ++round) {
    // Snapshot of active groups for this round.
    std::vector<std::uint32_t> ids;
    std::vector<geo::Point> centroids;
    ids.reserve(active_count);
    centroids.reserve(active_count);
    for (std::uint32_t g = 0; g < groups.size(); ++g) {
      if (groups[g].active) {
        ids.push_back(g);
        centroids.push_back(groups[g].centroid);
      }
    }
    const geo::KdTree tree(centroids);

    // Nearest feasible partner (round-local index) for every group. Each
    // entry reads only the round's snapshot tree and the group sizes,
    // which no merge has touched yet, so the queries run on the pool.
    constexpr std::uint32_t kNone = 0xFFFFFFFFU;
    std::vector<std::uint32_t> partner(ids.size(), kNone);
    util::parallel_for_chunks(
        ids.size(), kQueryGrain, [&](std::size_t begin, std::size_t end) {
          std::vector<std::size_t> nearest;
          for (std::size_t li = begin; li < end; ++li) {
            const Group& gi = groups[ids[li]];
            tree.nearest_k(centroids[li], kProbe, nearest, li);
            for (const std::size_t lj : nearest) {
              const Group& gj = groups[ids[lj]];
              if (gi.members.size() + gj.members.size() <= max_size) {
                partner[li] = static_cast<std::uint32_t>(lj);
                break;
              }
            }
          }
        });

    // Merge mutual nearest pairs first; then greedy one-sided merges to
    // guarantee progress.
    std::size_t merges = 0;
    const auto merge = [&](std::uint32_t la, std::uint32_t lb) {
      Group& a = groups[ids[la]];
      Group& b = groups[ids[lb]];
      CIM_ASSERT(a.active && b.active);
      const double wa = static_cast<double>(a.weight);
      const double wb = static_cast<double>(b.weight);
      a.centroid = (a.centroid * wa + b.centroid * wb) / (wa + wb);
      a.weight += b.weight;
      a.members.insert(a.members.end(), b.members.begin(), b.members.end());
      b.active = false;
      b.members.clear();
      --active_count;
      ++merges;
    };

    for (std::uint32_t li = 0;
         li < ids.size() && active_count > target_count; ++li) {
      const std::uint32_t lj = partner[li];
      if (lj == kNone || lj <= li) continue;
      if (partner[lj] != li) continue;  // not mutual
      if (!groups[ids[li]].active || !groups[ids[lj]].active) continue;
      merge(li, lj);
    }
    if (merges == 0) {
      for (std::uint32_t li = 0;
           li < ids.size() && active_count > target_count; ++li) {
        const std::uint32_t lj = partner[li];
        if (lj == kNone) continue;
        if (!groups[ids[li]].active || !groups[ids[lj]].active) continue;
        if (groups[ids[li]].members.size() +
                groups[ids[lj]].members.size() >
            max_size) {
          continue;  // partner grew since matching
        }
        merge(li, lj);
      }
    }
    if (merges == 0) {
      CIM_LOG_WARN << "agglomerative grouping stalled at " << active_count
                   << " groups (target " << target_count << ")";
      break;
    }
  }

  std::vector<std::vector<std::uint32_t>> out;
  out.reserve(active_count);
  for (auto& g : groups) {
    if (g.active) out.push_back(std::move(g.members));
  }
  return out;
}

}  // namespace cim::cluster
