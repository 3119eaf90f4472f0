#include "noise/sram_model.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cim/storage.hpp"
#include "noise/monte_carlo.hpp"
#include "noise/schedule.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

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
  // The write-back's settle pass, which reads PhaseSettler's flip tables,
  // must reproduce the oracle cell by cell: FastStorage::write_back with
  // every bit noisy, at every phase of the default schedule plus both
  // supply extremes, for an image and its complement (so both written
  // values of every cell), with and without hard faults.
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
  // 2^17 cells: 128 × 128 weights of 8 bits, cell ids 0 .. 2^17 − 1.
  constexpr std::uint32_t kSide = 128;
  constexpr std::uint32_t kBits = 8;
  constexpr std::uint64_t kCells = std::uint64_t{1} << 17;
  static_assert(std::uint64_t{kSide} * kSide * kBits == kCells);
  std::vector<std::uint8_t> image(kSide * kSide);
  util::Rng rng(0xF00D);
  for (auto& w : image) w = static_cast<std::uint8_t>(rng.below(256));
  std::vector<std::uint8_t> complement(image.size());
  for (std::size_t w = 0; w < image.size(); ++w) {
    complement[w] = static_cast<std::uint8_t>(~image[w]);
  }
  for (const double stuck_rate : {0.0, 0.02}) {
    SramNoiseParams params;
    params.stuck_cell_rate = stuck_rate;
    const SramCellModel model(params, 0xC0FFEE);
    std::array<bool, 65> class_seen{};
    for (std::uint64_t cell = 0; cell < kCells; ++cell) {
      class_seen[static_cast<std::size_t>(
          cell_hash::vth_popcount(model.seed(), cell))] = true;
    }
    // 2^17 cells must reach the 35 ΔVth classes whose expected count is
    // above one (15..49); the classes outside them hold under 2e-6 of the
    // mass together.
    std::size_t classes = 0;
    for (const bool seen : class_seen) classes += seen ? 1 : 0;
    EXPECT_GE(classes, 35U);
    std::vector<std::size_t> flips(vdds.size(), 0);
    for (const auto* written : {&image, &complement}) {
      auto storage = hw::make_fast_storage(kSide, kSide, &model, 0, kBits);
      storage->write(*written);
      for (std::size_t p = 0; p < vdds.size(); ++p) {
        SchedulePhase phase;
        phase.epoch = epochs[p];
        phase.vdd = vdds[p];
        phase.noisy_lsbs = kBits;
        phase.write_back = true;
        const std::uint64_t flips_before =
            storage->counters().pseudo_read_flips;
        storage->write_back(phase);
        // Pseudo-read flips only: a stuck cell's value is a hard fault
        // that write() already applied.
        std::uint64_t pseudo_read_flips = 0;
        for (std::uint32_t r = 0; r < kSide; ++r) {
          for (std::uint32_t c = 0; c < kSide; ++c) {
            const std::size_t w = std::size_t{r} * kSide + c;
            const unsigned settled =
                storage->weight(hw::RowIndex(r), hw::ColIndex(c));
            for (std::uint32_t b = 0; b < kBits; ++b) {
              const std::uint64_t cell = w * kBits + b;
              const bool bit = (((*written)[w] >> b) & 1U) != 0;
              const bool expected =
                  model.settled_value(cell, epochs[p], vdds[p], bit);
              ASSERT_EQ(((settled >> b) & 1U) != 0, expected)
                  << "cell " << cell << " vdd " << vdds[p] << " written "
                  << bit << " stuck rate " << stuck_rate;
              flips[p] += expected != bit ? 1 : 0;
              pseudo_read_flips +=
                  expected != bit && !model.is_stuck(cell) ? 1 : 0;
            }
          }
        }
        EXPECT_EQ(storage->counters().pseudo_read_flips - flips_before,
                  pseudo_read_flips)
            << "vdd " << vdds[p] << " stuck rate " << stuck_rate;
      }
    }
    for (std::size_t p = 0; p < vdds.size(); ++p) {
      if (vdds[p] < 0.5) {
        EXPECT_GT(flips[p], 0U) << "vdd " << vdds[p];
      }
    }
  }
}

TEST(PhaseSettler, TableMatchesBinarySearch) {
  // The thresholds come from a closed-form guess plus a walk and from a
  // mirror of k1 ≤ 32; both must land exactly where a plain binary search
  // over k2 with the flips() comparison does, for every supply on a fine
  // grid and for scales where the guess rounds either way (including a
  // zero disturbance scale, where nothing flips above zero margin).
  for (const double base : {0.045, 0.0173, 0.12, 0.0}) {
    for (const double sigma_vth : {0.05, 0.031}) {
      SramNoiseParams params;
      params.disturb_base = base;
      params.sigma_vth = sigma_vth;
      const SramCellModel model(params, 7);
      const double sigma_disturb = params.sigma_disturb();
      for (int step = 0; step <= 1000; ++step) {
        const double vdd = 0.001 * step;
        const PhaseSettler settler(model, 3, vdd);
        for (int k1 = 0; k1 <= 64; ++k1) {
          const double margin =
              model.snm(vdd, sigma_vth * cell_hash::unit_draw(k1));
          int want = 0;
          if (margin > 0.0) {
            int lo = 0;
            int hi = 65;
            while (lo < hi) {
              const int mid = (lo + hi) / 2;
              if (sigma_disturb * cell_hash::unit_draw(mid) > margin) {
                hi = mid;
              } else {
                lo = mid + 1;
              }
            }
            want = lo;
          }
          ASSERT_EQ(settler.flip_from(static_cast<unsigned>(k1)),
                    static_cast<unsigned>(want))
              << "k1 " << k1 << " vdd " << vdd << " base " << base
              << " sigma_vth " << sigma_vth;
        }
      }
    }
  }
}

TEST(CellHash, DisturbKeyComposesToDrawPopcount) {
  // The write-back kernel hashes a cell's disturbance key once and draws
  // each epoch from it; the composition must be the three-round draw
  // draw_popcount(seed ^ 0xF11B, cell, epoch) for any cell and epoch,
  // epoch bases near the top of the range included.
  util::Rng rng(0xD157);
  const std::uint64_t bases[] = {0, 1ULL << 20, 1ULL << 40, ~0ULL - 64};
  for (const std::uint64_t seed : {0x5EEDULL, 97ULL, ~0ULL}) {
    for (int trial = 0; trial < 20000; ++trial) {
      const std::uint64_t cell =
          trial < 100 ? static_cast<std::uint64_t>(trial) : rng();
      const std::uint64_t key = cell_hash::disturb_key(seed, cell);
      const std::uint64_t epoch =
          bases[static_cast<std::size_t>(trial) % 4] + rng.below(64);
      ASSERT_EQ(cell_hash::disturb_popcount(key, epoch),
                cell_hash::draw_popcount(seed ^ 0xF11BULL, cell, epoch))
          << "seed " << seed << " cell " << cell << " epoch " << epoch;
    }
  }
}

TEST(CellHash, PopcountMatchesStdPopcount) {
  // The inline SWAR count behind every draw must equal std::popcount on
  // every word: the edges, each single bit, runs and byte patterns, and
  // a stream of hashed words.
  std::vector<std::uint64_t> words = {
      0ULL,
      ~0ULL,
      0x5555555555555555ULL,
      0xAAAAAAAAAAAAAAAAULL,
      0x0F0F0F0F0F0F0F0FULL,
      0xFF00FF00FF00FF00ULL,
      0x8000000000000001ULL,
      0x7FFFFFFFFFFFFFFFULL,
      0x0101010101010101ULL};
  for (unsigned b = 0; b < 64; ++b) {
    words.push_back(1ULL << b);
    words.push_back(~(1ULL << b));
    words.push_back(b == 0 ? 0ULL : (~0ULL >> (64 - b)));
  }
  std::uint64_t state = 0x1234;
  for (int i = 0; i < 100000; ++i) words.push_back(util::splitmix64(state));
  for (const std::uint64_t w : words) {
    ASSERT_EQ(cell_hash::popcount64(w), std::popcount(w)) << std::hex << w;
  }
  static_assert(cell_hash::popcount64(~0ULL) == 64);
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
