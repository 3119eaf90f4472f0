#include <gtest/gtest.h>

#include "cim/array.hpp"
#include "cim/chip.hpp"
#include "cim/dataflow.hpp"
#include "util/error.hpp"

namespace cim::hw {
namespace {

TEST(ArrayGeometry, PaperTable2CellCounts) {
  // Table II: array size (cell rows × bit columns) per p_max.
  ArrayGeometry p2;
  p2.p_max = 2;
  EXPECT_EQ(p2.cell_rows(), 40U);   // 5 windows × 8 rows
  EXPECT_EQ(p2.cell_cols(), 64U);   // 2 windows × 4 cols × 8 bits
  ArrayGeometry p3;
  p3.p_max = 3;
  EXPECT_EQ(p3.cell_rows(), 75U);   // 5 × 15
  EXPECT_EQ(p3.cell_cols(), 144U);  // 2 × 9 × 8
  ArrayGeometry p4;
  p4.p_max = 4;
  EXPECT_EQ(p4.cell_rows(), 120U);  // 5 × 24
  EXPECT_EQ(p4.cell_cols(), 256U);  // 2 × 16 × 8
}

TEST(ChipPlan, PaperCapacities) {
  // Table I / §VI headline numbers (8-bit weights).
  const auto mb = [](const ChipLayout& layout) {
    return static_cast<double>(layout.capacity_bits) / 1e6;
  };
  ChipConfig fixed2;
  fixed2.n_cities = 3038;
  fixed2.p = 2;
  fixed2.strategy = SizingStrategy::kFixed;
  EXPECT_NEAR(plan_chip(fixed2).capacity_bytes(), 48.6e3, 0.2e3);

  ChipConfig semi3;
  semi3.n_cities = 3038;
  semi3.p = 3;
  EXPECT_NEAR(plan_chip(semi3).capacity_bytes(), 205.1e3, 0.5e3);

  ChipConfig flagship;
  flagship.n_cities = 85900;
  flagship.p = 3;
  EXPECT_NEAR(mb(plan_chip(flagship)), 46.4, 0.1);  // the 46.4 Mb headline

  ChipConfig semi4;
  semi4.n_cities = 5915;
  semi4.p = 4;
  EXPECT_NEAR(plan_chip(semi4).capacity_bytes(), 908.5e3, 1e3);
}

TEST(ChipPlan, WindowAndArrayCounts) {
  ChipConfig config;
  config.n_cities = 85900;
  config.p = 3;
  const auto layout = plan_chip(config);
  EXPECT_EQ(layout.windows, 42950U);  // 2N/(1+p)
  EXPECT_EQ(layout.arrays, 4295U);    // 10 windows per array
}

TEST(ChipPlan, FixedStrategyWindows) {
  ChipConfig config;
  config.n_cities = 1000;
  config.p = 4;
  config.strategy = SizingStrategy::kFixed;
  const auto layout = plan_chip(config);
  EXPECT_EQ(layout.windows, 250U);
}

TEST(ChipPlan, InvalidConfigThrows) {
  ChipConfig bad;
  bad.n_cities = 0;
  EXPECT_THROW(plan_chip(bad), ConfigError);
}

TEST(Dataflow, CountsEvents) {
  DataflowTracker tracker;
  tracker.record_input_shift(3);
  tracker.record_input_shift(3);
  tracker.record_edge_transfer(UpdateParity::kSolid, 3);
  tracker.record_edge_transfer(UpdateParity::kDash, 3);
  tracker.record_edge_transfer(UpdateParity::kSolid, 3);
  EXPECT_EQ(tracker.input_shift_events(), 2U);
  EXPECT_EQ(tracker.input_bits_shifted(), 6U);
  EXPECT_EQ(tracker.downstream_transfers(), 2U);
  EXPECT_EQ(tracker.upstream_transfers(), 1U);
  EXPECT_EQ(tracker.edge_bits_transferred(), 9U);

  DataflowTracker other;
  other.record_input_shift(2);
  tracker += other;
  EXPECT_EQ(tracker.input_shift_events(), 3U);
}

TEST(Dataflow, OnlyEdgeDataCrossesArrays) {
  // The paper's claim (Fig. 5(e)): per update, exactly p bits cross each
  // array boundary — the transfer volume is independent of the window
  // height. Model a full iteration over 10 clusters of p=3.
  DataflowTracker tracker;
  constexpr std::uint32_t kP = 3;
  constexpr std::size_t kClusters = 10;
  for (std::size_t c = 0; c < kClusters; ++c) {
    const auto parity =
        c % 2 == 0 ? UpdateParity::kSolid : UpdateParity::kDash;
    tracker.record_edge_transfer(parity, kP);
  }
  EXPECT_EQ(tracker.edge_bits_transferred(), kClusters * kP);
  // Far less than moving whole windows ((p²+2p)·p²·8 bits each).
  EXPECT_LT(tracker.edge_bits_transferred(),
            kClusters * (kP * kP + 2 * kP) * kP * kP * 8 / 100);
}

}  // namespace
}  // namespace cim::hw
