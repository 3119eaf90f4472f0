#include "ising/maxcut.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace cim::ising {

MaxCutProblem::MaxCutProblem(std::string name, std::size_t n,
                             std::vector<WeightedEdge> edges)
    : name_(std::move(name)), n_(n), edges_(std::move(edges)) {
  CIM_REQUIRE(n_ >= 2, "Max-Cut needs at least two vertices");
  std::vector<std::uint32_t> degree(n_, 0);
  for (const WeightedEdge& e : edges_) {
    CIM_REQUIRE(e.a < n_ && e.b < n_, "edge endpoint out of range");
    CIM_REQUIRE(e.a != e.b, "self-loops are not allowed");
    CIM_REQUIRE(e.w != 0, "zero-weight edges must be omitted");
    // |w| must be an int32 too: the annealers quantise std::abs(w).
    CIM_REQUIRE(e.w != std::numeric_limits<std::int32_t>::min(),
                "edge weight magnitude must fit int32 (|w| <= 2147483647)");
    total_weight_ += e.w;
    ++degree[e.a];
    ++degree[e.b];
  }
  for (const auto d : degree) max_degree_ = std::max(max_degree_, d);
}

long long MaxCutProblem::cut_value(std::span<const Spin> spins) const {
  CIM_ASSERT(spins.size() == n_);
  long long cut = 0;
  for (const WeightedEdge& e : edges_) {
    if (spins[e.a] != spins[e.b]) cut += e.w;
  }
  return cut;
}

IsingModel MaxCutProblem::to_ising() const {
  IsingModel model(n_);
  for (const WeightedEdge& e : edges_) {
    model.add_coupling(e.a, e.b, -static_cast<double>(e.w));
  }
  return model;
}

long long MaxCutProblem::cut_from_hamiltonian(double hamiltonian) const {
  // H = Σ wσσ; cut = (W_total − H)/2.
  return static_cast<long long>(
      std::llround((static_cast<double>(total_weight_) - hamiltonian) / 2.0));
}

MaxCutProblem random_maxcut(std::size_t n, double edge_probability,
                            std::uint64_t seed, std::int32_t w_max,
                            bool signed_weights) {
  CIM_REQUIRE(edge_probability > 0.0 && edge_probability <= 1.0,
              "edge probability must be in (0, 1]");
  CIM_REQUIRE(w_max >= 1, "w_max must be positive");
  util::Rng rng(util::hash_combine(seed, 0x3A8C7));
  std::vector<WeightedEdge> edges;
  for (SpinIndex a = 0; a < n; ++a) {
    for (SpinIndex b = a + 1; b < n; ++b) {
      if (!rng.chance(edge_probability)) continue;
      auto w = static_cast<std::int32_t>(rng.range(1, w_max));
      if (signed_weights && rng.chance(0.5)) w = -w;
      edges.push_back({a, b, w});
    }
  }
  // Guarantee connectivity of the vertex set in the degenerate sparse
  // case: chain any isolated vertices.
  std::vector<char> touched(n, 0);
  for (const auto& e : edges) {
    touched[e.a] = 1;
    touched[e.b] = 1;
  }
  for (SpinIndex v = 0; v < n; ++v) {
    if (!touched[v]) edges.push_back({v, (v + 1) % static_cast<SpinIndex>(n), 1});
  }
  // Built in two steps: `"g" + std::to_string(n)` trips a spurious
  // -Wrestrict in GCC 12's inlined string concatenation at -O3 (PR105329).
  std::string name = "g";
  name += std::to_string(n);
  return MaxCutProblem(std::move(name), n, std::move(edges));
}

MaxCutProblem complete_maxcut(std::size_t n, std::uint64_t seed) {
  util::Rng rng(util::hash_combine(seed, 0xC0FFEE));
  std::vector<WeightedEdge> edges;
  edges.reserve(n * (n - 1) / 2);
  for (SpinIndex a = 0; a < n; ++a) {
    for (SpinIndex b = a + 1; b < n; ++b) {
      edges.push_back({a, b, rng.chance(0.5) ? 1 : -1});
    }
  }
  std::string name = "k";  // two-step build: GCC 12 -Wrestrict (PR105329)
  name += std::to_string(n);
  return MaxCutProblem(std::move(name), n, std::move(edges));
}

MaxCutProblem ring_maxcut(std::size_t n) {
  CIM_REQUIRE(n >= 3, "ring needs at least 3 vertices");
  std::vector<WeightedEdge> edges;
  for (SpinIndex v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<SpinIndex>((v + 1) % n), 1});
  }
  return MaxCutProblem("ring" + std::to_string(n), n, std::move(edges));
}

long long brute_force_maxcut(const MaxCutProblem& problem) {
  const std::size_t n = problem.size();
  CIM_REQUIRE(n <= 24, "brute_force_maxcut limited to 24 vertices");
  long long best = 0;
  std::vector<Spin> spins(n, 1);
  const std::uint32_t masks = 1U << (n - 1);  // fix spin 0 by symmetry
  for (std::uint32_t mask = 0; mask < masks; ++mask) {
    for (std::size_t v = 1; v < n; ++v) {
      spins[v] = (mask >> (v - 1)) & 1U ? Spin{1} : Spin{-1};
    }
    best = std::max(best, problem.cut_value(spins));
  }
  return best;
}

long long greedy_maxcut(const MaxCutProblem& problem, std::uint64_t seed,
                        std::vector<Spin>* out_spins) {
  const std::size_t n = problem.size();
  util::Rng rng(seed);
  std::vector<Spin> spins = random_spins(n, rng);
  const IsingModel model = problem.to_ising();

  // Single-spin best-improvement local search to a local optimum.
  bool improved = true;
  while (improved) {
    improved = false;
    for (SpinIndex v = 0; v < n; ++v) {
      if (model.flip_delta(spins, v) < 0.0) {
        spins[v] = static_cast<Spin>(-spins[v]);
        improved = true;
      }
    }
  }
  const long long cut = problem.cut_value(spins);
  if (out_spins) *out_spins = std::move(spins);
  return cut;
}

}  // namespace cim::ising
