#include "anneal/local_fields.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <vector>

#include "noise/schedule.hpp"
#include "noise/sram_model.hpp"
#include "util/random.hpp"

namespace cim::anneal {
namespace {

constexpr std::uint32_t kSpins = 40;
constexpr std::uint32_t kRows = kSpins + 1;  // the last row is a bias row
constexpr std::uint32_t kCols[] = {37, 20};  // two windows, odd widths

noise::SchedulePhase noisy_phase(std::uint64_t epoch) {
  noise::SchedulePhase phase;
  phase.epoch = epoch;
  phase.vdd = 0.30;
  phase.noisy_lsbs = 4;
  phase.write_back = true;
  return phase;
}

/// A plane's 8-bit image, row-major: each weight is 0, 255 or any value
/// in [1, 255], a third each. Unlike a quantised J, a pos and a neg
/// plane built this way are both nonzero at many weights, and pos − neg
/// spans [−255, 255].
std::vector<std::uint8_t> plane_image(std::uint32_t cols,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> image(static_cast<std::size_t>(kRows) * cols);
  for (auto& w : image) {
    const std::uint64_t kind = rng.below(3);
    w = static_cast<std::uint8_t>(kind == 0   ? 0
                                  : kind == 1 ? 255
                                              : 1 + rng.below(255));
  }
  return image;
}

/// One set of planes for every window: built and written the same way for
/// each LocalFields under test, so their counters stay apart.
struct Planes {
  std::vector<std::unique_ptr<hw::WeightStorage>> storages;
  std::vector<LocalFields::Window> windows;

  explicit Planes(const noise::SramCellModel& model) {
    std::uint64_t cell_base = 0;
    std::uint64_t seed = 100;
    for (const std::uint32_t cols : kCols) {
      for (int plane = 0; plane < 2; ++plane) {  // pos, then neg
        storages.push_back(
            hw::make_fast_storage(kRows, cols, &model, cell_base, 8));
        storages.back()->write(plane_image(cols, seed++));
        cell_base += static_cast<std::uint64_t>(kRows) * cols * 8;
      }
      windows.push_back({storages[storages.size() - 2].get(),
                         storages.back().get()});
    }
  }

  void write_back(const noise::SchedulePhase& phase) {
    for (const auto& storage : storages) storage->write_back(phase);
  }

  hw::StorageCounters counters() const {
    hw::StorageCounters sum;
    for (const auto& storage : storages) sum += storage->counters();
    return sum;
  }
};

void expect_fields_match(LocalFields& memo, LocalFields& recompute,
                         const Planes& memo_planes,
                         const Planes& recompute_planes, int step) {
  for (std::size_t w = 0; w < std::size(kCols); ++w) {
    for (std::uint32_t c = 0; c < kCols[w]; ++c) {
      ASSERT_EQ(memo.field(w, c), recompute.field(w, c))
          << "step " << step << ", window " << w << ", column " << c;
    }
  }
  ASSERT_EQ(memo_planes.counters(), recompute_planes.counters())
      << "step " << step;
}

TEST(LocalFields, MemoMatchesRecomputeOnNoisyPlanes) {
  // The memoized fields (a signed J = pos − neg image summed into int32)
  // against the recompute oracle (two column MACs per field), on planes
  // that no quantiser would write: pos and neg overlap, magnitudes reach
  // 255, and a bias row stays at 1. Every spin flips once in a fixed
  // order, with a write-back and rebuild halfway through.
  const noise::SramCellModel model(noise::SramNoiseParams{}, 7);
  Planes memo_planes(model);
  Planes recompute_planes(model);
  memo_planes.write_back(noisy_phase(0));
  recompute_planes.write_back(noisy_phase(0));

  // The settled planes keep what the test is about.
  std::size_t overlaps = 0;
  int max_magnitude = 0;
  for (const LocalFields::Window& w : memo_planes.windows) {
    for (std::uint32_t r = 0; r < kRows; ++r) {
      const auto pos = w.pos->settled_row(hw::RowIndex(r));
      const auto neg = w.neg->settled_row(hw::RowIndex(r));
      for (std::size_t c = 0; c < pos.size(); ++c) {
        overlaps += pos[c] != 0 && neg[c] != 0 ? 1 : 0;
        max_magnitude = std::max(max_magnitude, std::abs(pos[c] - neg[c]));
      }
    }
  }
  EXPECT_GT(overlaps, 0U);
  EXPECT_EQ(max_magnitude, 255);
  EXPECT_GT(memo_planes.counters().pseudo_read_flips, 0U);

  util::Rng rng(11);
  std::vector<ising::Spin> spins(kSpins);
  for (auto& s : spins) s = rng.below(2) == 0 ? 1 : -1;
  LocalFields memo(memo_planes.windows, spins, true);
  LocalFields recompute(recompute_planes.windows, spins, false);
  memo.rebuild();
  recompute.rebuild();
  ASSERT_NO_FATAL_FAILURE(
      expect_fields_match(memo, recompute, memo_planes, recompute_planes, -1));

  for (std::uint32_t step = 0; step < kSpins; ++step) {
    if (step == kSpins / 2) {
      memo_planes.write_back(noisy_phase(1));
      recompute_planes.write_back(noisy_phase(1));
      memo.rebuild();
      recompute.rebuild();
    }
    const std::uint32_t row = (step * 7) % kSpins;  // 7 is prime to 40
    spins[row] = static_cast<ising::Spin>(-spins[row]);
    memo.flip(row, spins[row]);
    recompute.flip(row, spins[row]);
    ASSERT_NO_FATAL_FAILURE(expect_fields_match(memo, recompute, memo_planes,
                                                recompute_planes,
                                                static_cast<int>(step)));
  }
}

}  // namespace
}  // namespace cim::anneal
