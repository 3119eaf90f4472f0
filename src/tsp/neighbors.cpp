#include "tsp/neighbors.hpp"

#include <algorithm>

#include "geo/kdtree.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"

namespace cim::tsp {

NeighborLists::NeighborLists(const Instance& instance, std::size_t k,
                             Options options)
    : k_(std::min(k, instance.size() - 1)) {
  const std::size_t n = instance.size();
  CIM_REQUIRE(n >= 2, "neighbour lists need at least two cities");
  k_ = std::max<std::size_t>(k_, 1);
  lists_.resize(n * k_);
  if (options.with_distances) dists_.resize(n * k_);

  if (instance.has_coords()) {
    // Parallel per-tile kd-tree queries: the tree is immutable and every
    // tile writes its own disjoint slice of lists_/dists_. The tile's
    // query coordinates are gathered into SoA scratch once so the query
    // loop reads them from two contiguous arrays.
    const geo::KdTree tree(instance.coords());
    util::parallel_for_chunks(
        n, kTileCities, [&](std::size_t begin, std::size_t end) {
          const std::size_t tile = end - begin;
          std::vector<double> xs(tile);
          std::vector<double> ys(tile);
          for (std::size_t t = 0; t < tile; ++t) {
            const geo::Point p = instance.coord(static_cast<CityId>(begin + t));
            xs[t] = p.x;
            ys[t] = p.y;
          }
          std::vector<std::size_t> nn;
          for (std::size_t t = 0; t < tile; ++t) {
            const std::size_t c = begin + t;
            const geo::Point query{xs[t], ys[t]};
            tree.nearest_k(query, k_, nn, c);
            CIM_ASSERT(nn.size() == k_);
            for (std::size_t j = 0; j < k_; ++j) {
              lists_[c * k_ + j] = static_cast<CityId>(nn[j]);
            }
            if (!dists_.empty()) {
              const CityId city = static_cast<CityId>(c);
              for (std::size_t j = 0; j < k_; ++j) {
                dists_[c * k_ + j] =
                    instance.distance(city, lists_[c * k_ + j]);
              }
            }
          }
        });
    return;
  }

  // Explicit matrix: partial sort each row by distance. All per-tile
  // scratch — the candidate index buffer and the contiguous copy of the
  // matrix row — is reserved once per tile and reused across the tile's
  // cities, and the partial_sort comparator reads the local row copy
  // instead of chasing the full matrix.
  util::parallel_for_chunks(
      n, kTileCities, [&](std::size_t begin, std::size_t end) {
        std::vector<CityId> others(n - 1);
        std::vector<long long> dist_row(n);
        for (std::size_t c = begin; c < end; ++c) {
          const CityId city = static_cast<CityId>(c);
          for (std::size_t o = 0; o < n; ++o) {
            dist_row[o] = instance.distance(city, static_cast<CityId>(o));
          }
          for (std::size_t o = 0, w = 0; o < n; ++o) {
            if (o != c) others[w++] = static_cast<CityId>(o);
          }
          std::partial_sort(others.begin(),
                            others.begin() + static_cast<std::ptrdiff_t>(k_),
                            others.end(), [&](CityId a, CityId b) {
                              return dist_row[a] < dist_row[b];
                            });
          for (std::size_t j = 0; j < k_; ++j) {
            lists_[c * k_ + j] = others[j];
            if (!dists_.empty()) dists_[c * k_ + j] = dist_row[others[j]];
          }
        }
      });
}

}  // namespace cim::tsp
