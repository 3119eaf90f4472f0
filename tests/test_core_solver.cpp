#include "core/solver.hpp"

#include <chrono>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "tsp/generator.hpp"
#include "util/error.hpp"

namespace cim::core {
namespace {

TEST(CimSolver, EndToEndOutcome) {
  const auto inst = test::random_instance(200, 1);
  const CimSolver solver;
  const auto start = std::chrono::steady_clock::now();
  const auto outcome = solver.solve(inst);
  const std::chrono::duration<double> call =
      std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(outcome.anneal.tour.is_valid(200));
  EXPECT_EQ(outcome.tour_length, outcome.anneal.length);
  ASSERT_TRUE(outcome.reference_length.has_value());
  ASSERT_TRUE(outcome.optimal_ratio.has_value());
  EXPECT_GT(*outcome.optimal_ratio, 0.99);
  EXPECT_LT(*outcome.optimal_ratio, 3.0);
  ASSERT_TRUE(outcome.ppa.has_value());
  EXPECT_GT(outcome.ppa->chip_area.um2(), 0.0);
  EXPECT_GT(outcome.ppa->latency.total().seconds(), 0.0);
  // The wall time covers the whole call, reference and PPA included.
  EXPECT_GT(outcome.solve_wall_seconds, 0.0);
  EXPECT_LE(outcome.solve_wall_seconds, call.count());
}

TEST(CimSolver, ReferenceCanBeDisabled) {
  const auto inst = test::random_instance(100, 2);
  SolverConfig config;
  config.compute_reference = false;
  config.compute_ppa = false;
  const CimSolver solver(config);
  const auto outcome = solver.solve(inst);
  EXPECT_FALSE(outcome.reference_length.has_value());
  EXPECT_FALSE(outcome.optimal_ratio.has_value());
  EXPECT_FALSE(outcome.ppa.has_value());
}

TEST(CimSolver, ConfigValidation) {
  SolverConfig zero_p;
  zero_p.p_max = 0;
  EXPECT_THROW(CimSolver{zero_p}, ConfigError);
  SolverConfig fixed_one;
  fixed_one.strategy = cluster::Strategy::kFixed;
  fixed_one.p_max = 1;
  EXPECT_THROW(CimSolver{fixed_one}, ConfigError);
}

TEST(CimSolver, DesignPointMirrorsConfig) {
  SolverConfig config;
  config.p_max = 4;
  config.strategy = cluster::Strategy::kFixed;
  const CimSolver solver(config);
  const auto point = solver.design_point("x", 1000);
  EXPECT_EQ(point.p, 4U);
  EXPECT_EQ(point.strategy, hw::SizingStrategy::kFixed);
  EXPECT_EQ(point.n_cities, 1000U);
}

TEST(CimSolver, AnnealerConfigMirrorsConfig) {
  SolverConfig config;
  config.p_max = 2;
  config.noise = anneal::NoiseMode::kLfsr;
  config.chromatic_parallel = false;
  const CimSolver solver(config);
  const auto cfg = solver.annealer_config();
  EXPECT_EQ(cfg.clustering.p, 2U);
  EXPECT_EQ(cfg.noise, anneal::NoiseMode::kLfsr);
  EXPECT_FALSE(cfg.chromatic_parallel);
}

TEST(CimSolver, QualityBandOnPaperStyleInstance) {
  // The headline quality claim: < 25% overhead over near-optimal on the
  // paper's instance families (small mimic for test speed).
  const auto inst = tsp::make_paper_instance("pcb700");
  SolverConfig config;
  config.p_max = 3;
  const auto outcome = CimSolver(config).solve(inst);
  ASSERT_TRUE(outcome.optimal_ratio.has_value());
  EXPECT_LT(*outcome.optimal_ratio, 1.5);
}

TEST(CimSolver, SeedReproducibility) {
  const auto inst = test::random_instance(150, 3);
  SolverConfig config;
  config.seed = 777;
  config.compute_reference = false;
  config.compute_ppa = false;
  const auto a = CimSolver(config).solve(inst);
  const auto b = CimSolver(config).solve(inst);
  EXPECT_EQ(a.tour_length, b.tour_length);
  EXPECT_EQ(a.anneal.tour, b.anneal.tour);
}

TEST(CimSolver, PostRefineImprovesOrMatches) {
  const auto inst = test::random_instance(250, 8);
  SolverConfig raw;
  raw.compute_ppa = false;
  SolverConfig light = raw;
  light.post_refine = PostRefine::kLight;
  SolverConfig full = raw;
  full.post_refine = PostRefine::kFull;

  const auto r = CimSolver(raw).solve(inst);
  const auto l = CimSolver(light).solve(inst);
  const auto f = CimSolver(full).solve(inst);
  EXPECT_EQ(r.tour_length, r.hardware_length);
  EXPECT_LE(l.tour_length, l.hardware_length);
  EXPECT_LE(f.tour_length, f.hardware_length);
  EXPECT_LE(f.tour_length, l.tour_length);
  EXPECT_TRUE(f.anneal.tour.is_valid(250));
  EXPECT_EQ(f.tour_length, f.anneal.tour.length(inst));
}

TEST(CimSolver, ReplicasKeepBest) {
  const auto inst = test::random_instance(150, 9);
  SolverConfig config;
  config.replicas = 4;
  config.compute_ppa = false;
  config.compute_reference = false;
  const auto outcome = CimSolver(config).solve(inst);
  ASSERT_EQ(outcome.replica_lengths.size(), 4U);
  for (const long long len : outcome.replica_lengths) {
    EXPECT_GE(len, outcome.hardware_length);
  }
}

TEST(CimSolver, ZeroReplicasRejected) {
  SolverConfig config;
  config.replicas = 0;
  EXPECT_THROW(CimSolver{config}, ConfigError);
}

TEST(CimSolver, PpaDesignPointUsesMeasuredDepth) {
  const auto inst = test::random_instance(300, 4);
  const auto outcome = CimSolver().solve(inst);
  ASSERT_TRUE(outcome.ppa.has_value());
  EXPECT_EQ(outcome.ppa->depth, outcome.anneal.hierarchy_depth);
}

}  // namespace
}  // namespace cim::core
