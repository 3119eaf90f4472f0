#include "heuristics/two_opt.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "util/error.hpp"

namespace cim::heuristics {

using tsp::CityId;
using tsp::Instance;
using tsp::NeighborLists;
using tsp::Tour;

TwoOptResult two_opt(const Instance& instance, Tour& tour,
                     const TwoOptOptions& options) {
  const std::size_t n = instance.size();
  TwoOptResult result;
  result.initial_length = tour.length(instance);
  result.final_length = result.initial_length;
  if (n < 4) return result;

  std::unique_ptr<NeighborLists> owned;
  const NeighborLists* nbrs = options.neighbors;
  if (!nbrs) {
    owned = std::make_unique<NeighborLists>(instance, options.neighbor_k);
    nbrs = owned.get();
  }

  std::vector<CityId>& order = tour.mutable_order();
  std::vector<std::uint32_t> pos = tour.position_of();
  std::vector<char> dont_look(n, 0);

  // Reverses the shorter side of the cyclic segment between positions
  // (i+1..j) to keep each move O(min segment).
  const auto apply_move = [&](std::size_t i, std::size_t j) {
    // The move removes edges (order[i],order[i+1]) and (order[j],order[j+1])
    // and reconnects as (order[i],order[j]) + (order[i+1],order[j+1]).
    std::size_t lo = i + 1;
    std::size_t hi = j;
    CIM_ASSERT(lo <= hi);
    const std::size_t inside = hi - lo + 1;
    if (inside * 2 <= n) {
      while (lo < hi) {
        std::swap(order[lo], order[hi]);
        pos[order[lo]] = static_cast<std::uint32_t>(lo);
        pos[order[hi]] = static_cast<std::uint32_t>(hi);
        ++lo;
        --hi;
      }
      if (lo == hi) pos[order[lo]] = static_cast<std::uint32_t>(lo);
    } else {
      // Reverse the complementary (cyclic) segment instead: positions
      // j+1 .. i (mod n). The resulting cycle is identical up to
      // orientation.
      std::size_t outside = n - inside;
      std::size_t a = (j + 1) % n;
      std::size_t b = i;
      for (std::size_t s = 0; s < outside / 2; ++s) {
        std::swap(order[a], order[b]);
        pos[order[a]] = static_cast<std::uint32_t>(a);
        pos[order[b]] = static_cast<std::uint32_t>(b);
        a = (a + 1) % n;
        b = (b + n - 1) % n;
      }
    }
  };

  bool any_improved = true;
  while (any_improved && result.passes < options.max_passes) {
    any_improved = false;
    ++result.passes;
    for (CityId a = 0; a < n; ++a) {
      if (dont_look[a]) continue;
      bool improved_here = false;

      // Consider a as the left endpoint of a removed edge, in both tour
      // directions.
      for (int dir = 0; dir < 2 && !improved_here; ++dir) {
        const std::size_t pa = pos[a];
        const std::size_t pa_next = dir == 0 ? (pa + 1) % n
                                             : (pa + n - 1) % n;
        const CityId a_next = order[pa_next];
        const long long d_a = instance.distance(a, a_next);

        const auto cands = nbrs->of(a);
        const auto cand_d = nbrs->dist_of(a);
        for (std::size_t ci = 0; ci < cands.size(); ++ci) {
          const CityId b = cands[ci];
          const long long d_ab =
              cand_d.empty() ? instance.distance(a, b) : cand_d[ci];
          if (d_ab >= d_a) break;  // candidates sorted by distance
          const std::size_t pb = pos[b];
          const std::size_t pb_next = dir == 0 ? (pb + 1) % n
                                               : (pb + n - 1) % n;
          const CityId b_next = order[pb_next];
          if (b == a_next || b_next == a) continue;
          const long long delta = d_ab + instance.distance(a_next, b_next) -
                                  d_a - instance.distance(b, b_next);
          if (delta < 0) {
            // Normalise to forward orientation for apply_move.
            std::size_t i = dir == 0 ? pa : pa_next;
            std::size_t j = dir == 0 ? pb : pb_next;
            if (i > j) std::swap(i, j);
            apply_move(i, j);
            result.final_length += delta;
            ++result.improvements;
            dont_look[a] = dont_look[a_next] = 0;
            dont_look[b] = dont_look[b_next] = 0;
            improved_here = true;
            any_improved = true;
            break;
          }
        }
      }
      if (!improved_here) dont_look[a] = 1;
    }
  }

  CIM_ASSERT_MSG(result.final_length == tour.length(instance),
                 "incremental 2-opt length drifted from recomputed length");
  return result;
}

}  // namespace cim::heuristics
