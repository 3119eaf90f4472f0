#include "core/solver.hpp"

#include <chrono>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "tsp/generator.hpp"
#include "util/error.hpp"
#include "util/telemetry.hpp"

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

/// The solve's trace events without their timestamps: everything the
/// deterministic merge contract (DESIGN.md §12) pins.
std::vector<std::tuple<std::string, char, std::uint64_t, std::vector<double>>>
events_of_solve(const CimSolver& solver, const tsp::Instance& inst,
                SolveOutcome& outcome) {
  util::telemetry::Registry& telem = util::telemetry::Registry::global();
  telem.reset();
  outcome = solver.solve(inst);
  std::vector<std::tuple<std::string, char, std::uint64_t,
                         std::vector<double>>>
      events;
  for (const auto& event : telem.merged_events()) {
    std::vector<double> values;
    for (const auto& arg : event.args) values.push_back(arg.value);
    events.emplace_back(event.name, event.phase, event.tid, values);
  }
  return events;
}

TEST(CimSolver, ReferenceBesideAnnealLeavesSolveIdentical) {
  // The reference runs on the shared pool beside the anneal; the anneal,
  // refinement and their telemetry stay on the calling thread, so turning
  // the reference on must change nothing else in the outcome.
  const auto inst = test::random_instance(400, 13);
  SolverConfig off;
  off.compute_reference = false;
  off.post_refine = PostRefine::kLight;
  SolverConfig on = off;
  on.compute_reference = true;

  SolveOutcome a;
  SolveOutcome b;
  const auto events_off = events_of_solve(CimSolver(off), inst, a);
  const auto events_on = events_of_solve(CimSolver(on), inst, b);

  EXPECT_EQ(a.anneal.tour, b.anneal.tour);
  EXPECT_EQ(a.tour_length, b.tour_length);
  EXPECT_EQ(a.hardware_length, b.hardware_length);
  EXPECT_EQ(a.anneal.length, b.anneal.length);
  EXPECT_EQ(a.anneal.hw.storage, b.anneal.hw.storage);
  EXPECT_EQ(a.anneal.hw.update_cycles, b.anneal.hw.update_cycles);
  EXPECT_EQ(a.anneal.hw.writeback_cycles, b.anneal.hw.writeback_cycles);
  EXPECT_EQ(a.anneal.hw.swap_attempts, b.anneal.hw.swap_attempts);
  ASSERT_TRUE(a.ppa.has_value());
  ASSERT_TRUE(b.ppa.has_value());
  EXPECT_EQ(a.ppa->chip_area, b.ppa->chip_area);
  EXPECT_EQ(a.ppa->depth, b.ppa->depth);
  EXPECT_EQ(a.ppa->latency.total(), b.ppa->latency.total());
  EXPECT_EQ(a.ppa->energy.total(), b.ppa->energy.total());
  EXPECT_EQ(a.ppa->average_power, b.ppa->average_power);
  EXPECT_EQ(events_off, events_on);
  if constexpr (util::telemetry::kEnabled) {
    EXPECT_FALSE(events_on.empty());
  }
  EXPECT_FALSE(a.reference_length.has_value());
  ASSERT_TRUE(b.reference_length.has_value());
  EXPECT_EQ(*b.reference_length, heuristics::compute_reference(inst).length);
  ASSERT_TRUE(b.optimal_ratio.has_value());
  EXPECT_EQ(*b.optimal_ratio,
            tsp::optimal_ratio(b.tour_length, *b.reference_length));
}

TEST(CimSolver, ReferenceBesideEnsembleLeavesResultIdentical) {
  const auto inst = test::random_instance(200, 14);
  SolverConfig off;
  off.replicas = 3;
  off.compute_reference = false;
  SolverConfig on = off;
  on.compute_reference = true;
  const auto a = CimSolver(off).solve(inst);
  const auto b = CimSolver(on).solve(inst);
  EXPECT_EQ(a.anneal.tour, b.anneal.tour);
  EXPECT_EQ(a.tour_length, b.tour_length);
  EXPECT_EQ(a.replica_lengths, b.replica_lengths);
  EXPECT_EQ(a.anneal.hw.storage, b.anneal.hw.storage);
  ASSERT_TRUE(b.reference_length.has_value());
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
