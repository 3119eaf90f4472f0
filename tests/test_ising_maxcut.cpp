#include "ising/maxcut.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "util/error.hpp"

namespace cim::ising {
namespace {

TEST(MaxCut, CutValueByHand) {
  // Triangle with weights 1,2,3: best cut = 5 (isolate the 1-edge pair).
  MaxCutProblem tri("tri", 3, {{0, 1, 1}, {1, 2, 2}, {0, 2, 3}});
  EXPECT_EQ(tri.total_weight(), 6);
  const std::vector<Spin> split{1, 1, -1};  // cut edges (1,2) and (0,2)
  EXPECT_EQ(tri.cut_value(split), 5);
  const std::vector<Spin> all_same(3, 1);
  EXPECT_EQ(tri.cut_value(all_same), 0);
  EXPECT_EQ(brute_force_maxcut(tri), 5);
}

TEST(MaxCut, HamiltonianIdentity) {
  // cut = (W − Σwσσ)/2 via the Ising mapping, on random assignments.
  const auto problem = random_maxcut(12, 0.4, 1, 5, true);
  const IsingModel model = problem.to_ising();
  util::Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const auto spins = random_spins(12, rng);
    // H = −Σ Jσσ with J = −w, so H = Σ wσσ.
    const double h = model.hamiltonian(spins);
    EXPECT_EQ(problem.cut_from_hamiltonian(h), problem.cut_value(spins));
  }
}

TEST(MaxCut, RingOptimum) {
  // Even cycle: cut all n edges; odd cycle: n−1.
  EXPECT_EQ(brute_force_maxcut(ring_maxcut(8)), 8);
  EXPECT_EQ(brute_force_maxcut(ring_maxcut(9)), 8);
  EXPECT_EQ(brute_force_maxcut(ring_maxcut(12)), 12);
}

TEST(MaxCut, BipartiteIsFullyCuttable) {
  // K_{3,3}: all 9 edges cut at optimum.
  std::vector<WeightedEdge> edges;
  for (SpinIndex a = 0; a < 3; ++a) {
    for (SpinIndex b = 3; b < 6; ++b) edges.push_back({a, b, 1});
  }
  MaxCutProblem k33("k33", 6, std::move(edges));
  EXPECT_EQ(brute_force_maxcut(k33), 9);
}

TEST(MaxCut, GeneratorsProduceValidGraphs) {
  const auto g = random_maxcut(50, 0.1, 3, 4, true);
  EXPECT_EQ(g.size(), 50U);
  EXPECT_GT(g.edge_count(), 0U);
  EXPECT_GT(g.max_degree(), 0U);
  const auto k = complete_maxcut(20, 4);
  EXPECT_EQ(k.edge_count(), 20U * 19U / 2U);
  EXPECT_EQ(k.max_degree(), 19U);
}

TEST(MaxCut, GeneratorsAreDeterministic) {
  const auto a = random_maxcut(30, 0.3, 7, 3);
  const auto b = random_maxcut(30, 0.3, 7, 3);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t i = 0; i < a.edge_count(); ++i) {
    EXPECT_EQ(a.edges()[i].a, b.edges()[i].a);
    EXPECT_EQ(a.edges()[i].w, b.edges()[i].w);
  }
}

TEST(MaxCut, GreedyReachesLocalOptimum) {
  const auto problem = random_maxcut(40, 0.2, 9, 3);
  std::vector<Spin> spins;
  const long long cut = greedy_maxcut(problem, 1, &spins);
  EXPECT_EQ(cut, problem.cut_value(spins));
  // Local optimality: no single flip improves.
  const IsingModel model = problem.to_ising();
  for (SpinIndex v = 0; v < 40; ++v) {
    EXPECT_GE(model.flip_delta(spins, v), 0.0);
  }
}

TEST(MaxCut, GreedyNearOptimalOnSmall) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto problem = random_maxcut(14, 0.4, 20 + seed, 5);
    const long long optimal = brute_force_maxcut(problem);
    long long best_greedy = 0;
    for (std::uint64_t restart = 0; restart < 8; ++restart) {
      best_greedy =
          std::max(best_greedy, greedy_maxcut(problem, restart));
    }
    EXPECT_GE(best_greedy * 10, optimal * 9);  // within 10%
    EXPECT_LE(best_greedy, optimal);
  }
}

TEST(MaxCut, Validation) {
  EXPECT_THROW(MaxCutProblem("bad", 1, {}), ConfigError);
  EXPECT_THROW(MaxCutProblem("bad", 3, {{0, 0, 1}}), ConfigError);
  EXPECT_THROW(MaxCutProblem("bad", 3, {{0, 5, 1}}), ConfigError);
  EXPECT_THROW(MaxCutProblem("bad", 3, {{0, 1, 0}}), ConfigError);
  // |INT32_MIN| overflows int32; the largest magnitude that fits is fine.
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  EXPECT_THROW(MaxCutProblem("bad", 3, {{0, 1, -kMax - 1}}), ConfigError);
  EXPECT_NO_THROW(MaxCutProblem("ok", 3, {{0, 1, -kMax}, {1, 2, kMax}}));
  EXPECT_THROW(random_maxcut(10, 0.0, 1), ConfigError);
  const auto big = random_maxcut(30, 0.5, 1);
  EXPECT_THROW(brute_force_maxcut(big), ConfigError);
}

}  // namespace
}  // namespace cim::ising
