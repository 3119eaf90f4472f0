// Failure-injection tests: malformed inputs, hostile configurations and
// corrupted hardware state must fail loudly (typed exceptions), never
// silently corrupt results.
#include <gtest/gtest.h>

#include "anneal/clustered_annealer.hpp"
#include "cim/storage.hpp"
#include "cluster/hierarchy.hpp"
#include "core/solver.hpp"
#include "ising/pbm.hpp"
#include "test_helpers.hpp"
#include "tsp/tsplib.hpp"
#include "util/error.hpp"

namespace cim {
namespace {

TEST(FailureInjection, TruncatedTsplibFile) {
  const std::string truncated =
      "NAME : broken\nTYPE : TSP\nDIMENSION : 100\n"
      "EDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 1 1\n";
  EXPECT_THROW(tsp::parse_tsplib(truncated), ParseError);
}

TEST(FailureInjection, GarbageTsplibFile) {
  EXPECT_THROW(tsp::parse_tsplib("complete nonsense\nnot a tsp file\n"),
               ParseError);
  EXPECT_THROW(tsp::parse_tsplib(""), ParseError);
}

TEST(FailureInjection, BinaryGarbage) {
  std::string binary(256, '\0');
  for (std::size_t i = 0; i < binary.size(); ++i) {
    binary[i] = static_cast<char>(i ^ 0xA5);
  }
  EXPECT_THROW(tsp::parse_tsplib(binary), Error);
}

TEST(FailureInjection, NegativeDimension) {
  EXPECT_THROW(
      tsp::parse_tsplib("TYPE : TSP\nDIMENSION : -5\n"
                        "EDGE_WEIGHT_TYPE : EUC_2D\n"
                        "NODE_COORD_SECTION\n1 0 0\nEOF\n"),
      ParseError);
}

TEST(FailureInjection, HostileSolverConfigs) {
  core::SolverConfig p_zero;
  p_zero.p_max = 0;
  EXPECT_THROW(core::CimSolver{p_zero}, ConfigError);

  core::SolverConfig bits_zero;
  bits_zero.weight_bits = 0;
  EXPECT_THROW(core::CimSolver(bits_zero).solve(test::random_instance(10, 1)),
               ConfigError);

  core::SolverConfig bad_schedule;
  bad_schedule.schedule.total_iterations = 0;
  EXPECT_THROW(
      core::CimSolver(bad_schedule).solve(test::random_instance(10, 1)),
      ConfigError);

  core::SolverConfig bad_sram;
  bad_sram.sram.sigma_vth = -1.0;
  EXPECT_THROW(
      core::CimSolver(bad_sram).solve(test::random_instance(10, 1)),
      ConfigError);
}

TEST(FailureInjection, AnnealerOnExplicitInstance) {
  // Clustering needs coordinates; an explicit matrix must be rejected
  // loudly, not produce a garbage hierarchy.
  const auto expl = test::to_explicit(test::random_instance(20, 2));
  anneal::AnnealerConfig config;
  EXPECT_THROW(anneal::ClusteredAnnealer(config).solve(expl), ConfigError);
}

TEST(FailureInjection, PbmRejectsForeignTour) {
  const auto inst = test::random_instance(10, 3);
  EXPECT_THROW(ising::PbmState(inst, tsp::Tour::identity(9)), ConfigError);
}

TEST(FailureInjection, StorageMisuse) {
  // write_back before write violates an invariant, on either backend.
  noise::SchedulePhase phase;
  auto storage = hw::make_fast_storage(4, 4, nullptr, 0);
  EXPECT_THROW(storage->write_back(phase), InvariantError);
  auto bit_level = hw::make_bit_level_storage(4, 4, nullptr, 0);
  EXPECT_THROW(bit_level->write_back(phase), InvariantError);

  // With a noise model a batch write-back would settle the never-written
  // (uninitialised) golden image: the check must fire before any pass
  // runs, so the written storage beside it keeps its weights and charges
  // nothing, through write_back and through run_epochs alike.
  const noise::SramCellModel model(noise::SramNoiseParams{}, 5);
  noise::SchedulePhase noisy;
  noisy.vdd = 0.20;
  noisy.noisy_lsbs = 6;
  noisy.write_back = true;
  auto fresh = hw::make_fast_storage(40, 40, &model, 0);
  EXPECT_THROW(fresh->write_back(noisy), InvariantError);
  auto written = hw::make_fast_storage(40, 40, &model, 40 * 40 * 8);
  const std::vector<std::uint8_t> image(40 * 40, 0x55);
  written->write(image);
  hw::StorageBatch batch({written.get(), fresh.get()});
  EXPECT_THROW(batch.write_back(noisy), InvariantError);
  std::size_t bodies = 0;
  EXPECT_THROW(batch.run_epochs(noise::AnnealSchedule{}, 0,
                                [&](std::size_t, std::size_t) { ++bodies; }),
               InvariantError);
  EXPECT_EQ(bodies, 0U);
  EXPECT_EQ(written->counters(), hw::StorageCounters{});
  for (std::uint32_t r = 0; r < 40; ++r) {
    for (std::uint32_t c = 0; c < 40; ++c) {
      ASSERT_EQ(written->weight(hw::RowIndex(r), hw::ColIndex(c)), 0x55);
    }
  }
  // Written, the same batch settles: the first write-back flips cells.
  batch.write(std::vector<std::uint8_t>(batch.weights(), 0x55));
  batch.write_back(noisy);
  EXPECT_GT(written->counters().pseudo_read_flips, 0U);
}

TEST(FailureInjection, StuckAtCellsDegradeGracefully) {
  // A pathological noise model where nearly every cell is broken (huge
  // mismatch): the annealer must still return a valid tour — quality
  // degrades, correctness does not.
  const auto inst = test::random_instance(80, 4);
  anneal::AnnealerConfig config;
  config.clustering.p = 3;
  config.sram.sigma_vth = 1.0;      // extreme variation
  config.sram.disturb_base = 2.0;   // extreme disturbance
  const auto result = anneal::ClusteredAnnealer(config).solve(inst);
  EXPECT_TRUE(result.tour.is_valid(80));
  EXPECT_GT(result.hw.storage.pseudo_read_flips, 0U);
}

TEST(FailureInjection, AllNoiseScheduleNeverConverging) {
  // A schedule that never anneals (VDD stays low) must still terminate
  // and produce a valid tour.
  const auto inst = test::random_instance(60, 5);
  anneal::AnnealerConfig config;
  config.schedule.vdd_step = 0.0;  // stuck at 300 mV
  const auto result = anneal::ClusteredAnnealer(config).solve(inst);
  EXPECT_TRUE(result.tour.is_valid(60));
}

TEST(FailureInjection, DegenerateGeometry) {
  // All cities collinear and tightly spaced: quantisation squeezes many
  // distances to the same code; still valid output.
  std::vector<geo::Point> pts;
  for (int i = 0; i < 50; ++i) {
    pts.push_back({static_cast<double>(i) * 0.001, 0.0});
  }
  const tsp::Instance inst("line", geo::Metric::kEuc2D, std::move(pts));
  anneal::AnnealerConfig config;
  const auto result = anneal::ClusteredAnnealer(config).solve(inst);
  EXPECT_TRUE(result.tour.is_valid(50));
}

TEST(FailureInjection, CoincidentCities) {
  // Duplicate coordinates give zero-distance pairs; nothing divides by
  // the distance so this must work.
  std::vector<geo::Point> pts(30, geo::Point{5.0, 5.0});
  pts.resize(60);
  for (std::size_t i = 30; i < 60; ++i) {
    pts[i] = {static_cast<double>(i), 10.0};
  }
  const tsp::Instance inst("dup", geo::Metric::kEuc2D, std::move(pts));
  anneal::AnnealerConfig config;
  const auto result = anneal::ClusteredAnnealer(config).solve(inst);
  EXPECT_TRUE(result.tour.is_valid(60));
}

TEST(FailureInjection, AssertMacrosThrow) {
  EXPECT_THROW(CIM_ASSERT(false), InvariantError);
  EXPECT_THROW(CIM_ASSERT_MSG(false, "context"), InvariantError);
  EXPECT_THROW(CIM_REQUIRE(false, "user error"), ConfigError);
  EXPECT_NO_THROW(CIM_ASSERT(true));
  try {
    CIM_ASSERT_MSG(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace cim
