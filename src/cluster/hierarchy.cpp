#include "cluster/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/agglomerate.hpp"
#include "cluster/refine.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/random.hpp"

namespace cim::cluster {

const char* strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::kUnlimited:
      return "unlimited";
    case Strategy::kFixed:
      return "fixed";
    case Strategy::kSemiFlexible:
      return "semi-flexible";
  }
  return "?";
}

Hierarchy::Hierarchy(const tsp::Instance& instance, Options options)
    : instance_(instance), options_(options) {
  CIM_REQUIRE(instance_.has_coords(),
              "hierarchical clustering requires a coordinate instance");
  CIM_REQUIRE(options_.top_size >= 2, "top_size must be at least 2");
  if (options_.strategy != Strategy::kUnlimited) {
    CIM_REQUIRE(options_.p >= 1, "cluster size parameter must be positive");
  }
  build();
}

void Hierarchy::build() {
  util::Rng rng(options_.seed);

  // Current items to be grouped: centroids + city weights + provenance.
  std::vector<geo::Point> item_points(instance_.coords().begin(),
                                      instance_.coords().end());
  std::vector<std::uint32_t> item_weights(instance_.size(), 1);

  while (true) {
    const std::size_t m = item_points.size();
    if (m <= options_.top_size && !levels_.empty()) break;

    std::vector<std::vector<std::uint32_t>> grouping;
    if (m <= options_.top_size) {
      // Tiny instance: one singleton cluster per city so the hierarchy has
      // at least one level.
      grouping.resize(m);
      for (std::uint32_t i = 0; i < m; ++i) grouping[i] = {i};
    } else {
      switch (options_.strategy) {
        case Strategy::kFixed:
          grouping = group_fixed(item_points, options_.p, rng);
          break;
        case Strategy::kSemiFlexible: {
          const auto target = static_cast<std::size_t>(std::ceil(
              2.0 * static_cast<double>(m) /
              (1.0 + static_cast<double>(options_.p))));
          grouping = group_agglomerative(item_points, item_weights,
                                         std::max<std::size_t>(target, 1),
                                         options_.p);
          break;
        }
        case Strategy::kUnlimited: {
          const std::size_t target = (m + 1) / 2;
          grouping = group_agglomerative(
              item_points, item_weights, std::max<std::size_t>(target, 1),
              std::numeric_limits<std::size_t>::max());
          break;
        }
      }
    }

    if (options_.refine && options_.strategy != Strategy::kFixed &&
        grouping.size() > 1) {
      const std::size_t cap =
          options_.strategy == Strategy::kSemiFlexible
              ? options_.p
              : std::numeric_limits<std::size_t>::max();
      refine_groups(item_points, item_weights, grouping, cap);
    }

    Level level;
    level.clusters.reserve(grouping.size());
    std::vector<geo::Point> next_points;
    std::vector<std::uint32_t> next_weights;
    next_points.reserve(grouping.size());
    next_weights.reserve(grouping.size());
    for (auto& members : grouping) {
      CIM_ASSERT(!members.empty());
      Cluster cluster;
      double wsum = 0.0;
      geo::Point acc{};
      std::uint32_t cities = 0;
      for (const std::uint32_t mem : members) {
        const double w = static_cast<double>(item_weights[mem]);
        acc = acc + item_points[mem] * w;
        wsum += w;
        cities += item_weights[mem];
      }
      cluster.centroid = acc / wsum;
      cluster.city_count = cities;
      cluster.members = std::move(members);
      next_points.push_back(cluster.centroid);
      next_weights.push_back(cluster.city_count);
      level.clusters.push_back(std::move(cluster));
    }

    const std::size_t produced = level.clusters.size();
    levels_.push_back(std::move(level));
    if (produced >= m && m > options_.top_size) {
      CIM_LOG_WARN << "hierarchy level failed to reduce (" << m << " -> "
                   << produced << "); stopping";
      break;
    }
    item_points = std::move(next_points);
    item_weights = std::move(next_weights);
    if (item_points.size() <= options_.top_size) break;
  }
  CIM_ASSERT(!levels_.empty());
}

std::size_t Hierarchy::max_cluster_size() const {
  std::size_t best = 0;
  for (const Level& level : levels_) {
    for (const Cluster& c : level.clusters) {
      best = std::max(best, c.members.size());
    }
  }
  return best;
}

double Hierarchy::mean_cluster_size() const {
  std::size_t members = 0;
  std::size_t clusters = 0;
  for (const Level& level : levels_) {
    for (const Cluster& c : level.clusters) {
      members += c.members.size();
      ++clusters;
    }
  }
  return clusters ? static_cast<double>(members) /
                        static_cast<double>(clusters)
                  : 0.0;
}

std::size_t Hierarchy::total_clusters() const {
  std::size_t total = 0;
  for (const Level& level : levels_) total += level.clusters.size();
  return total;
}

std::vector<tsp::CityId> Hierarchy::cities_of(std::size_t k,
                                              std::uint32_t c) const {
  CIM_ASSERT(k < levels_.size());
  CIM_ASSERT(c < levels_[k].clusters.size());
  if (k == 0) {
    const auto& members = levels_[0].clusters[c].members;
    return {members.begin(), members.end()};
  }
  std::vector<tsp::CityId> cities;
  cities.reserve(levels_[k].clusters[c].city_count);
  for (const std::uint32_t child : levels_[k].clusters[c].members) {
    const auto sub = cities_of(k - 1, child);
    cities.insert(cities.end(), sub.begin(), sub.end());
  }
  return cities;
}

void Hierarchy::validate() const {
  const std::size_t n = instance_.size();
  for (std::size_t k = 0; k < levels_.size(); ++k) {
    std::vector<char> seen(n, 0);
    std::size_t covered = 0;
    for (std::uint32_t c = 0; c < levels_[k].clusters.size(); ++c) {
      const auto cities = cities_of(k, c);
      CIM_ASSERT_MSG(cities.size() == levels_[k].clusters[c].city_count,
                     "cluster city_count mismatch");
      for (const tsp::CityId city : cities) {
        CIM_ASSERT_MSG(city < n && !seen[city],
                       "city repeated or out of range in level partition");
        seen[city] = 1;
        ++covered;
      }
    }
    CIM_ASSERT_MSG(covered == n, "level does not cover all cities");
    // Upper levels must reference every cluster of the level below exactly
    // once.
    if (k > 0) {
      std::vector<char> used(levels_[k - 1].clusters.size(), 0);
      for (const Cluster& c : levels_[k].clusters) {
        for (const std::uint32_t mem : c.members) {
          CIM_ASSERT_MSG(mem < used.size() && !used[mem],
                         "child cluster repeated or out of range");
          used[mem] = 1;
        }
      }
      for (const char u : used) CIM_ASSERT(u);
    }
  }
}

}  // namespace cim::cluster
