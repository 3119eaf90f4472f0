#include "heuristics/construct.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

#include "geo/kdtree.hpp"
#include "tsp/neighbors.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace cim::heuristics {

using tsp::CityId;
using tsp::Instance;
using tsp::Tour;

Tour nearest_neighbor(const Instance& instance, CityId start) {
  const std::size_t n = instance.size();
  CIM_REQUIRE(start < n, "start city out of range");
  std::vector<CityId> order;
  order.reserve(n);

  if (instance.has_coords()) {
    geo::KdTree tree(instance.coords());
    CityId current = start;
    tree.set_active(current, false);
    order.push_back(current);
    while (order.size() < n) {
      const std::size_t next = tree.nearest(instance.coord(current));
      CIM_ASSERT(next != geo::KdTree::npos);
      current = static_cast<CityId>(next);
      tree.set_active(current, false);
      order.push_back(current);
    }
    return Tour(std::move(order));
  }

  std::vector<char> visited(n, 0);
  CityId current = start;
  visited[current] = 1;
  order.push_back(current);
  while (order.size() < n) {
    long long best = std::numeric_limits<long long>::max();
    CityId pick = 0;
    for (CityId c = 0; c < n; ++c) {
      if (visited[c]) continue;
      const long long d = instance.distance(current, c);
      if (d < best) {
        best = d;
        pick = c;
      }
    }
    visited[pick] = 1;
    order.push_back(pick);
    current = pick;
  }
  return Tour(std::move(order));
}

namespace {

/// Union-find for greedy-edge cycle detection.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0U);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace

Tour greedy_edge(const Instance& instance, std::size_t k) {
  const std::size_t n = instance.size();
  if (n < 3) return Tour::identity(n);
  return greedy_edge(instance, tsp::NeighborLists(instance, k));
}

Tour greedy_edge(const Instance& instance, const tsp::NeighborLists& nbrs) {
  const std::size_t n = instance.size();
  if (n < 3) return Tour::identity(n);
  CIM_REQUIRE(nbrs.size() == n, "neighbour lists built for another instance");

  struct Edge {
    long long d;
    CityId a;
    CityId b;
    bool operator<(const Edge& other) const { return d < other.d; }
  };

  std::vector<Edge> edges;
  edges.reserve(n * nbrs.k());
  for (CityId a = 0; a < n; ++a) {
    for (const CityId b : nbrs.of(a)) {
      if (a < b) edges.push_back({instance.distance(a, b), a, b});
    }
  }
  std::sort(edges.begin(), edges.end());

  std::vector<std::uint8_t> degree(n, 0);
  std::vector<std::array<CityId, 2>> adj(n, {tsp::CityId(-1), tsp::CityId(-1)});
  UnionFind uf(n);
  std::size_t accepted = 0;

  const auto try_add = [&](CityId a, CityId b) {
    if (degree[a] >= 2 || degree[b] >= 2) return false;
    if (!uf.unite(a, b)) return false;  // would close a premature cycle
    adj[a][degree[a]++] = b;
    adj[b][degree[b]++] = a;
    ++accepted;
    return true;
  };

  for (const Edge& e : edges) {
    if (accepted == n - 1) break;
    try_add(e.a, e.b);
  }

  // Completion: connect remaining degree<2 endpoints greedily by distance.
  if (accepted < n - 1) {
    std::vector<CityId> open;
    for (CityId c = 0; c < n; ++c) {
      if (degree[c] < 2) open.push_back(c);
    }
    // Quadratic in the (typically small) number of open endpoints.
    bool progress = true;
    while (accepted < n - 1 && progress) {
      progress = false;
      long long best = std::numeric_limits<long long>::max();
      CityId ba = 0;
      CityId bb = 0;
      for (std::size_t i = 0; i < open.size(); ++i) {
        const CityId a = open[i];
        if (degree[a] >= 2) continue;
        for (std::size_t j = i + 1; j < open.size(); ++j) {
          const CityId b = open[j];
          if (degree[b] >= 2) continue;
          if (uf.find(a) == uf.find(b)) continue;
          const long long d = instance.distance(a, b);
          if (d < best) {
            best = d;
            ba = a;
            bb = b;
          }
        }
      }
      if (best != std::numeric_limits<long long>::max()) {
        progress = try_add(ba, bb);
      }
    }
  }
  CIM_ASSERT_MSG(accepted == n - 1, "greedy edge failed to build a path");

  // Close the Hamiltonian path into a cycle and read the tour off.
  std::vector<CityId> ends;
  for (CityId c = 0; c < n; ++c) {
    if (degree[c] == 1) ends.push_back(c);
  }
  CIM_ASSERT(ends.size() == 2);
  adj[ends[0]][degree[ends[0]]++] = ends[1];
  adj[ends[1]][degree[ends[1]]++] = ends[0];

  std::vector<CityId> order;
  order.reserve(n);
  std::vector<char> visited(n, 0);
  CityId current = 0;
  CityId previous = tsp::CityId(-1);
  for (std::size_t i = 0; i < n; ++i) {
    order.push_back(current);
    visited[current] = 1;
    const CityId next =
        (adj[current][0] != previous && !visited[adj[current][0]])
            ? adj[current][0]
            : adj[current][1];
    previous = current;
    if (i + 1 < n) {
      CIM_ASSERT_MSG(!visited[next], "greedy edge produced a short cycle");
    }
    current = next;
  }
  return Tour(std::move(order));
}

Tour random_tour(const Instance& instance, std::uint64_t seed) {
  util::Rng rng(seed);
  auto perm = util::random_permutation(instance.size(), rng);
  return Tour(std::move(perm));
}

}  // namespace cim::heuristics
