#include "noise/sram_model.hpp"

#include <array>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "noise/monte_carlo.hpp"
#include "noise/schedule.hpp"
#include "util/error.hpp"

namespace cim::noise {
namespace {

TEST(SramModel, ErrorRateMonotoneInVdd) {
  const SramCellModel model;
  double prev = 1.0;
  for (double vdd = 0.20; vdd <= 0.80 + 1e-9; vdd += 0.05) {
    const double rate = model.expected_error_rate(vdd);
    EXPECT_LE(rate, prev + 1e-12) << "vdd=" << vdd;
    prev = rate;
  }
}

TEST(SramModel, NominalSupplyIsErrorFree) {
  const SramCellModel model;
  EXPECT_LT(model.expected_error_rate(0.80), 1e-6);
}

TEST(SramModel, LowSupplyApproachesFiftyPercent) {
  const SramCellModel model;
  const double rate = model.expected_error_rate(0.18);
  EXPECT_GT(rate, 0.30);
  EXPECT_LE(rate, 0.50 + 1e-12);
}

TEST(SramModel, ScheduleWindowHasUsefulDynamicRange) {
  // The §V ramp (300 → 580 mV) must traverse from significant noise to
  // near-zero noise.
  const SramCellModel model;
  EXPECT_GT(model.expected_error_rate(0.30), 0.02);
  EXPECT_LT(model.expected_error_rate(0.58), 1e-3);
}

TEST(SramModel, HigherBlCapacitanceSharperTransition) {
  // Fig. 6(b): higher C_BL → sharper sigmoid. Compare the transition
  // width (vdd span between 5% and 40% error) of two capacitances.
  SramNoiseParams low_c;
  low_c.bl_cap_ff = 5.0;
  SramNoiseParams high_c;
  high_c.bl_cap_ff = 80.0;
  const SramCellModel low(low_c, 1);
  const SramCellModel high(high_c, 1);

  // A sharper sigmoid falls off faster: in the transition region the
  // high-C_BL curve sits strictly below the low-C_BL curve, while the two
  // agree at the extremes (0 at nominal, →50% at very low supply).
  for (double v = 0.25; v <= 0.50 + 1e-9; v += 0.05) {
    EXPECT_LT(high.expected_error_rate(v), low.expected_error_rate(v))
        << "vdd=" << v;
  }
  EXPECT_NEAR(high.expected_error_rate(0.15), low.expected_error_rate(0.15),
              0.02);
  EXPECT_NEAR(high.expected_error_rate(0.80), low.expected_error_rate(0.80),
              1e-6);
}

TEST(SramModel, SnmShrinksWithSupplyAndMismatch) {
  const SramCellModel model;
  EXPECT_GT(model.snm(0.8, 0.0), model.snm(0.4, 0.0));
  EXPECT_GT(model.snm(0.8, 0.0), model.snm(0.8, 0.1));
  EXPECT_DOUBLE_EQ(model.snm(0.1, 0.0), 0.0);  // clamped
}

TEST(SramModel, FlipProbabilityBounds) {
  const SramCellModel model;
  for (double dvth : {-0.2, -0.05, 0.0, 0.05, 0.2}) {
    for (double vdd : {0.2, 0.4, 0.6, 0.8}) {
      const double p = model.flip_probability(vdd, dvth);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(SramModel, TraitsAreDeterministicPerCell) {
  const SramCellModel model(SramNoiseParams{}, 42);
  const auto a = model.traits(1234);
  const auto b = model.traits(1234);
  EXPECT_EQ(a.delta_vth, b.delta_vth);
  EXPECT_EQ(a.preferred_bit, b.preferred_bit);
  const auto c = model.traits(1235);
  EXPECT_NE(a.delta_vth, c.delta_vth);
}

TEST(SramModel, TraitsPopulationStatistics) {
  const SramCellModel model(SramNoiseParams{}, 7);
  double sum = 0.0;
  double sum2 = 0.0;
  std::size_t preferred_ones = 0;
  constexpr int kCells = 20000;
  for (int c = 0; c < kCells; ++c) {
    const auto t = model.traits(static_cast<std::uint64_t>(c));
    sum += t.delta_vth;
    sum2 += t.delta_vth * t.delta_vth;
    preferred_ones += t.preferred_bit ? 1 : 0;
  }
  const double mean = sum / kCells;
  const double var = sum2 / kCells - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.002);
  EXPECT_NEAR(std::sqrt(var), model.params().sigma_vth, 0.002);
  EXPECT_NEAR(static_cast<double>(preferred_ones) / kCells, 0.5, 0.02);
}

TEST(SramModel, PreferredValueIsStable) {
  const SramCellModel model(SramNoiseParams{}, 3);
  for (std::uint64_t cell = 0; cell < 200; ++cell) {
    const auto t = model.traits(cell);
    // Writing the preferred value: never corrupted, at any supply.
    EXPECT_EQ(model.settled_value(cell, 0, 0.2, t.preferred_bit),
              t.preferred_bit);
  }
}

TEST(SramModel, FlipsGoTowardPreferredOnly) {
  const SramCellModel model(SramNoiseParams{}, 5);
  for (std::uint64_t cell = 0; cell < 500; ++cell) {
    const auto t = model.traits(cell);
    const bool anti = !t.preferred_bit;
    const bool settled = model.settled_value(cell, 1, 0.25, anti);
    // Either it stayed, or it flipped to the preferred value.
    EXPECT_TRUE(settled == anti || settled == t.preferred_bit);
  }
}

TEST(SramModel, SpatialPatternIsReproducible) {
  const SramCellModel model(SramNoiseParams{}, 11);
  for (std::uint64_t cell = 0; cell < 300; ++cell) {
    EXPECT_EQ(model.flips(cell, 4, 0.3), model.flips(cell, 4, 0.3));
  }
}

TEST(SramModel, EpochChangesDisturbance) {
  const SramCellModel model(SramNoiseParams{}, 13);
  std::size_t differing = 0;
  for (std::uint64_t cell = 0; cell < 2000; ++cell) {
    if (model.flips(cell, 0, 0.3) != model.flips(cell, 1, 0.3)) ++differing;
  }
  // Borderline cells flip in some epochs and not others, but the pattern
  // is mostly spatial (dominated by fixed ΔVth).
  EXPECT_GT(differing, 0U);
  EXPECT_LT(differing, 600U);
}

TEST(SramModel, InvalidParamsThrow) {
  SramNoiseParams bad;
  bad.sigma_vth = 0.0;
  EXPECT_THROW(SramCellModel(bad, 1), ConfigError);
  SramNoiseParams bad_cap;
  bad_cap.bl_cap_ff = 0.0;
  EXPECT_THROW(SramCellModel(bad_cap, 1), ConfigError);
  SramNoiseParams bad_disturb;
  bad_disturb.disturb_base = -0.01;
  EXPECT_THROW(SramCellModel(bad_disturb, 1), ConfigError);
}

TEST(PhaseSettler, MatchesSettledValue) {
  // The write-back fast path must reproduce the oracle bit for bit: every
  // phase of the default schedule plus both supply extremes, both written
  // values, with and without hard faults — through settle() and through
  // the flips_anti() rule FastStorage's mask walk calls directly.
  std::vector<double> vdds = {0.20, 0.80};
  std::vector<std::uint64_t> epochs = {17, 18};
  const AnnealSchedule schedule;
  for (std::size_t it = 0; it < schedule.total_iterations(); ++it) {
    const SchedulePhase phase = schedule.at(it);
    if (!phase.write_back) continue;
    vdds.push_back(phase.vdd);
    epochs.push_back(phase.epoch);
  }
  ASSERT_GT(vdds.size(), 4U);
  constexpr std::uint64_t kCells = std::uint64_t{1} << 17;
  for (const double stuck_rate : {0.0, 0.02}) {
    SramNoiseParams params;
    params.stuck_cell_rate = stuck_rate;
    const SramCellModel model(params, 0xC0FFEE);
    for (std::size_t p = 0; p < vdds.size(); ++p) {
      const PhaseSettler settler(model, epochs[p], vdds[p]);
      std::array<bool, 65> class_seen{};
      std::size_t flips = 0;
      for (std::uint64_t cell = 0; cell < kCells; ++cell) {
        class_seen[static_cast<std::size_t>(
            cell_hash::vth_popcount(model.seed(), cell))] = true;
        for (const bool written : {false, true}) {
          const bool expected =
              model.settled_value(cell, epochs[p], vdds[p], written);
          ASSERT_EQ(settler.settle(cell, written), expected)
              << "cell " << cell << " vdd " << vdds[p] << " written "
              << written << " stuck rate " << stuck_rate;
          flips += expected != written ? 1 : 0;
        }
        // The mask walk's rule: on an anti-preferred non-stuck cell,
        // flips_anti() is exactly "settled_value() returns preferred".
        const bool preferred = cell_hash::preferred_bit(model.seed(), cell);
        if (!model.is_stuck(cell)) {
          ASSERT_EQ(settler.flips_anti(cell),
                    model.settled_value(cell, epochs[p], vdds[p],
                                        !preferred) == preferred)
              << "cell " << cell << " vdd " << vdds[p] << " stuck rate "
              << stuck_rate;
        }
      }
      // 2^17 cells must reach the 35 ΔVth classes whose expected count is
      // above one (15..49); the classes outside them hold under 2e-6 of
      // the mass together.
      std::size_t classes = 0;
      for (const bool seen : class_seen) classes += seen ? 1 : 0;
      EXPECT_GE(classes, 35U) << "vdd " << vdds[p];
      if (vdds[p] < 0.5) {
        EXPECT_GT(flips, 0U) << "vdd " << vdds[p];
      }
    }
  }
}

TEST(MonteCarlo, MeasuredTracksAnalytic) {
  const SramCellModel model;
  SweepOptions options;
  options.samples = 4000;
  const auto points = error_rate_sweep(model, options);
  ASSERT_GT(points.size(), 8U);
  for (const auto& pt : points) {
    EXPECT_NEAR(pt.measured, pt.analytic, 0.035)
        << "vdd=" << pt.vdd;
  }
}

TEST(MonteCarlo, SweepCoversRequestedRange) {
  const SramCellModel model;
  SweepOptions options;
  options.samples = 100;
  const auto points = error_rate_sweep(model, options);
  EXPECT_NEAR(points.front().vdd, 0.80, 1e-9);
  EXPECT_NEAR(points.back().vdd, 0.20, 1e-9);
}

TEST(MonteCarlo, PaperSampleCountWorks) {
  // The paper uses 1000 Monte-Carlo samples per voltage.
  const SramCellModel model;
  SweepOptions options;
  options.samples = 1000;
  const auto points = error_rate_sweep(model, options);
  EXPECT_LT(points.front().measured, 0.01);  // 800 mV
  EXPECT_GT(points.back().measured, 0.25);   // 200 mV
}

TEST(MonteCarlo, InvalidOptionsThrow) {
  const SramCellModel model;
  SweepOptions bad;
  bad.samples = 0;
  EXPECT_THROW(error_rate_sweep(model, bad), ConfigError);
  SweepOptions reversed;
  reversed.vdd_start = 0.2;
  reversed.vdd_stop = 0.8;
  EXPECT_THROW(error_rate_sweep(model, reversed), ConfigError);
}

}  // namespace
}  // namespace cim::noise
