#include "cim/storage.hpp"

#include <gtest/gtest.h>

#include "noise/schedule.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace cim::hw {
namespace {

std::vector<std::uint8_t> random_image(std::uint32_t rows, std::uint32_t cols,
                                       std::uint64_t seed,
                                       std::uint32_t bits = 8) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> image(static_cast<std::size_t>(rows) * cols);
  for (auto& w : image) {
    w = static_cast<std::uint8_t>(rng.below(1ULL << bits));
  }
  return image;
}

noise::SchedulePhase phase(std::uint64_t epoch, double vdd,
                           unsigned noisy_lsbs) {
  noise::SchedulePhase p;
  p.epoch = epoch;
  p.vdd = vdd;
  p.noisy_lsbs = noisy_lsbs;
  p.write_back = true;
  return p;
}

TEST(Storage, NoiseFreeMacIsExactDotProduct) {
  const auto image = random_image(15, 9, 1);
  for (const bool bit_level : {false, true}) {
    auto storage = bit_level
                       ? make_bit_level_storage(15, 9, nullptr, 0)
                       : make_fast_storage(15, 9, nullptr, 0);
    storage->write(image);
    util::Rng rng(2);
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<std::uint8_t> input(15);
      for (auto& b : input) b = rng.chance(0.5) ? 1 : 0;
      const auto col = static_cast<std::uint32_t>(rng.below(9));
      std::int64_t expected = 0;
      for (std::uint32_t r = 0; r < 15; ++r) {
        if (input[r]) expected += image[r * 9 + col];
      }
      EXPECT_EQ(storage->mac(ColIndex(col), input), expected)
          << (bit_level ? "bit-level" : "fast");
    }
  }
}

TEST(Storage, BackendsProduceIdenticalErrorPatterns) {
  // The headline equivalence property: identical (model, cell_base, epoch,
  // vdd) must corrupt both backends identically, bit for bit.
  const noise::SramCellModel model(noise::SramNoiseParams{}, 99);
  const auto image = random_image(15, 9, 3);
  auto fast = make_fast_storage(15, 9, &model, 4096);
  auto bits = make_bit_level_storage(15, 9, &model, 4096);
  fast->write(image);
  bits->write(image);
  for (std::uint64_t epoch = 0; epoch < 6; ++epoch) {
    const auto p = phase(epoch, 0.30 + 0.04 * static_cast<double>(epoch),
                         6 - static_cast<unsigned>(epoch));
    fast->write_back(p);
    bits->write_back(p);
    for (std::uint32_t r = 0; r < 15; ++r) {
      for (std::uint32_t c = 0; c < 9; ++c) {
        ASSERT_EQ(fast->weight(RowIndex(r), ColIndex(c)), bits->weight(RowIndex(r), ColIndex(c)))
            << "epoch " << epoch << " cell " << r << "," << c;
      }
    }
    EXPECT_EQ(fast->counters().pseudo_read_flips,
              bits->counters().pseudo_read_flips);
  }
}

TEST(Storage, BackendsAgreeWithStuckCellsAndNoise) {
  // Regression: FastStorage::write_back used to corrupt on top of the
  // golden value instead of the stuck-adjusted one, silently healing hard
  // faults whenever noisy_lsbs > 0 and diverging from BitLevelStorage.
  noise::SramNoiseParams params;
  params.stuck_cell_rate = 0.05;
  const noise::SramCellModel model(params, 99);
  const auto image = random_image(15, 9, 3);
  auto fast = make_fast_storage(15, 9, &model, 4096);
  auto bits = make_bit_level_storage(15, 9, &model, 4096);
  fast->write(image);
  bits->write(image);
  std::size_t stuck_divergent = 0;
  for (std::uint64_t epoch = 0; epoch < 6; ++epoch) {
    const auto p = phase(epoch, 0.30 + 0.04 * static_cast<double>(epoch),
                         6 - static_cast<unsigned>(epoch));
    fast->write_back(p);
    bits->write_back(p);
    for (std::uint32_t r = 0; r < 15; ++r) {
      for (std::uint32_t c = 0; c < 9; ++c) {
        ASSERT_EQ(fast->weight(RowIndex(r), ColIndex(c)), bits->weight(RowIndex(r), ColIndex(c)))
            << "epoch " << epoch << " cell " << r << "," << c;
        if (fast->weight(RowIndex(r), ColIndex(c)) != image[r * 9 + c]) ++stuck_divergent;
      }
    }
    EXPECT_EQ(fast->counters().pseudo_read_flips,
              bits->counters().pseudo_read_flips);
  }
  // With a 5 % stuck rate some cells must diverge from the golden image
  // even after the backends agree — those are the hard faults the fast
  // backend used to erase.
  EXPECT_GT(stuck_divergent, 0U);
}

TEST(Storage, ChunkedWriteBackMatchesBitLevel) {
  // A plane of ~4.7 write-back chunks (16 384 weights each, the last one
  // partial) refreshes on the shared pool; every default-schedule
  // write-back must still match the serial bit-level oracle weight for
  // weight and counter for counter. tests/CMakeLists.txt reruns this
  // under 1, 2 and 8 pool workers.
  constexpr std::uint32_t kRows = 257;
  constexpr std::uint32_t kCols = 300;
  const auto image = random_image(kRows, kCols, 31);
  for (const double stuck_rate : {0.0, 0.01}) {
    noise::SramNoiseParams params;
    params.stuck_cell_rate = stuck_rate;
    const noise::SramCellModel model(params, 41);
    auto chunked = make_fast_storage(kRows, kCols, &model, 1 << 20);
    auto oracle = make_bit_level_storage(kRows, kCols, &model, 1 << 20);
    chunked->write(image);
    oracle->write(image);
    const noise::AnnealSchedule schedule;
    std::size_t write_backs = 0;
    for (std::size_t it = 0; it < schedule.total_iterations(); ++it) {
      const noise::SchedulePhase p = schedule.at(it);
      if (!p.write_back) continue;
      ++write_backs;
      chunked->write_back(p);
      oracle->write_back(p);
      for (std::uint32_t r = 0; r < kRows; ++r) {
        for (std::uint32_t c = 0; c < kCols; ++c) {
          ASSERT_EQ(chunked->weight(RowIndex(r), ColIndex(c)),
                    oracle->weight(RowIndex(r), ColIndex(c)))
              << "epoch " << p.epoch << " weight " << r << "," << c
              << " stuck rate " << stuck_rate;
        }
      }
      EXPECT_EQ(chunked->counters().pseudo_read_flips,
                oracle->counters().pseudo_read_flips);
      EXPECT_EQ(chunked->counters().writeback_bits,
                oracle->counters().writeback_bits);
    }
    EXPECT_EQ(chunked->counters().writeback_events, write_backs);
    EXPECT_GT(chunked->counters().pseudo_read_flips, 0U);
  }
}

TEST(Storage, RewriteRebuildsPreferredMask) {
  // FastStorage derives its anti-preferred mask and stuck-adjusted image
  // from the written weights. A second write() to the same storage must
  // rebuild both: image B is taken through every default-schedule
  // write-back after image A was written and refreshed, and must match
  // the bit-level oracle weight for weight and flip for flip. With 5-bit
  // weights the schedule's 6 noisy LSBs reach past the weight, and cells
  // at or above weight_bits must never settle.
  struct Case {
    double stuck_rate;
    std::uint32_t bits;
  };
  constexpr std::uint32_t kRows = 131;
  constexpr std::uint32_t kCols = 140;  // 18 340 weights: two chunks
  const noise::AnnealSchedule schedule;
  std::vector<noise::SchedulePhase> phases;
  for (std::size_t it = 0; it < schedule.total_iterations(); ++it) {
    if (schedule.at(it).write_back) phases.push_back(schedule.at(it));
  }
  ASSERT_FALSE(phases.empty());
  ASSERT_EQ(phases.front().noisy_lsbs, 6U);
  for (const Case c : {Case{0.0, 8}, Case{0.01, 8}, Case{0.0, 5}}) {
    noise::SramNoiseParams params;
    params.stuck_cell_rate = c.stuck_rate;
    const noise::SramCellModel model(params, 53);
    const auto image_a = random_image(kRows, kCols, 61, c.bits);
    const auto image_b = random_image(kRows, kCols, 62, c.bits);
    auto rewritten = make_fast_storage(kRows, kCols, &model, 777, c.bits);
    auto reference =
        make_bit_level_storage(kRows, kCols, &model, 777, c.bits);
    rewritten->write(image_a);
    reference->write(image_a);
    rewritten->write_back(phases.front());
    reference->write_back(phases.front());
    rewritten->write(image_b);
    reference->write(image_b);
    for (const auto& p : phases) {
      rewritten->write_back(p);
      reference->write_back(p);
      for (std::uint32_t r = 0; r < kRows; ++r) {
        for (std::uint32_t col = 0; col < kCols; ++col) {
          const std::uint8_t w =
              rewritten->weight(RowIndex(r), ColIndex(col));
          ASSERT_EQ(w, reference->weight(RowIndex(r), ColIndex(col)))
              << "epoch " << p.epoch << " weight " << r << "," << col
              << " stuck rate " << c.stuck_rate << " bits " << c.bits;
          ASSERT_LT(w, 1U << c.bits);
        }
      }
      ASSERT_EQ(rewritten->counters().pseudo_read_flips,
                reference->counters().pseudo_read_flips)
          << "epoch " << p.epoch << " stuck rate " << c.stuck_rate
          << " bits " << c.bits;
    }
    EXPECT_GT(rewritten->counters().pseudo_read_flips, 0U);
  }
}

TEST(Storage, SparseMacMatchesDense) {
  // Equivalence invariant of mac_sparse(): same value and same counters
  // as mac() for any input and its set-row list (counters model hardware
  // row reads, so mac_bit_reads advances by rows·bits either way).
  const auto image = random_image(15, 9, 21);
  for (const bool bit_level : {false, true}) {
    auto dense = bit_level ? make_bit_level_storage(15, 9, nullptr, 0)
                           : make_fast_storage(15, 9, nullptr, 0);
    auto sparse = bit_level ? make_bit_level_storage(15, 9, nullptr, 0)
                            : make_fast_storage(15, 9, nullptr, 0);
    dense->write(image);
    sparse->write(image);
    util::Rng rng(4);
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<std::uint8_t> input(15);
      std::vector<std::uint32_t> active;
      for (std::uint32_t r = 0; r < 15; ++r) {
        input[r] = rng.chance(0.4) ? 1 : 0;
        if (input[r]) active.push_back(r);
      }
      const auto col = static_cast<std::uint32_t>(rng.below(9));
      EXPECT_EQ(dense->mac(ColIndex(col), input), sparse->mac_sparse(ColIndex(col), active))
          << (bit_level ? "bit-level" : "fast");
    }
    EXPECT_EQ(dense->counters().macs, sparse->counters().macs);
    EXPECT_EQ(dense->counters().mac_bit_reads,
              sparse->counters().mac_bit_reads);
  }
}

// The equivalence invariant as a randomized sweep over window shapes,
// weight precisions, backends, pseudo-read policies and noise phases:
// dense and sparse MACs agree on values, final weights and every
// StorageCounters field.
TEST(Storage, DenseSparsePropertySweep) {
  const noise::SramCellModel model(noise::SramNoiseParams{}, 101);
  util::Rng rng(17);
  struct Backend {
    bool bit_level;
    PseudoReadPolicy policy;
  };
  const Backend backends[] = {
      {false, PseudoReadPolicy::kSettleAtWriteBack},
      {true, PseudoReadPolicy::kSettleAtWriteBack},
      {true, PseudoReadPolicy::kFlipOnAccess},
  };
  for (int config = 0; config < 12; ++config) {
    const std::uint32_t rows = 2 + static_cast<std::uint32_t>(rng.below(90));
    const std::uint32_t cols = 1 + static_cast<std::uint32_t>(rng.below(12));
    const std::uint32_t bits = 1 + static_cast<std::uint32_t>(rng.below(8));
    const bool noisy = rng.chance(0.7);
    const auto image = random_image(rows, cols, 1000 + config, bits);
    for (const Backend& backend : backends) {
      const noise::SramCellModel* m = noisy ? &model : nullptr;
      const auto make = [&] {
        return backend.bit_level
                   ? make_bit_level_storage(rows, cols, m, 4096, bits,
                                            backend.policy)
                   : make_fast_storage(rows, cols, m, 4096, bits);
      };
      auto dense = make();
      auto sparse = make();
      for (auto* s : {&dense, &sparse}) {
        (*s)->write(image);
        (*s)->write_back(phase(static_cast<std::uint64_t>(config), 0.30,
                               noisy ? 6 : 0));
      }
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<std::uint8_t> input(rows);
        std::vector<std::uint32_t> active;
        for (std::uint32_t r = 0; r < rows; ++r) {
          input[r] = rng.chance(0.4) ? 1 : 0;
          if (input[r]) active.push_back(r);
        }
        const auto col = ColIndex(static_cast<std::uint32_t>(rng.below(cols)));
        EXPECT_EQ(sparse->mac_sparse(col, active), dense->mac(col, input))
            << "rows=" << rows << " bits=" << bits;
      }
      const auto& cd = dense->counters();
      const auto& cs = sparse->counters();
      EXPECT_EQ(cs.macs, cd.macs);
      EXPECT_EQ(cs.mac_bit_reads, cd.mac_bit_reads);
      EXPECT_EQ(cs.pseudo_read_flips, cd.pseudo_read_flips);
      EXPECT_EQ(cs.writeback_bits, cd.writeback_bits);
      for (std::uint32_t r = 0; r < rows; ++r) {
        for (std::uint32_t c = 0; c < cols; ++c) {
          ASSERT_EQ(sparse->weight(RowIndex(r), ColIndex(c)),
                    dense->weight(RowIndex(r), ColIndex(c)));
        }
      }
    }
  }
}

TEST(Storage, SparseMacTriggersLazyCorruptionIdentically) {
  // kFlipOnAccess corrupts every cell of the addressed column on a MAC
  // (the pseudo-read hits the whole column on hardware); the sparse path
  // must replicate that state change exactly, not just the sum.
  const noise::SramCellModel model(noise::SramNoiseParams{}, 19);
  const auto image = random_image(15, 9, 12);
  auto dense = make_bit_level_storage(15, 9, &model, 0, 8,
                                      PseudoReadPolicy::kFlipOnAccess);
  auto sparse = make_bit_level_storage(15, 9, &model, 0, 8,
                                       PseudoReadPolicy::kFlipOnAccess);
  dense->write(image);
  sparse->write(image);
  const auto p = phase(1, 0.24, 6);
  dense->write_back(p);
  sparse->write_back(p);
  std::vector<std::uint8_t> input(15, 0);
  std::vector<std::uint32_t> active;
  for (std::uint32_t r = 0; r < 15; r += 3) {
    input[r] = 1;
    active.push_back(r);
  }
  for (std::uint32_t c = 0; c < 9; c += 2) {
    EXPECT_EQ(dense->mac(ColIndex(c), input), sparse->mac_sparse(ColIndex(c), active));
    for (std::uint32_t r = 0; r < 15; ++r) {
      for (std::uint32_t cc = 0; cc < 9; ++cc) {
        ASSERT_EQ(dense->weight(RowIndex(r), ColIndex(cc)), sparse->weight(RowIndex(r), ColIndex(cc)))
            << "after column " << c << " at " << r << "," << cc;
      }
    }
    EXPECT_EQ(dense->counters().pseudo_read_flips,
              sparse->counters().pseudo_read_flips);
  }
}

TEST(Storage, AccumulateRowSumsToColumnMacs) {
  // Row accumulates over the settled (noisy, stuck) image rebuild every
  // column MAC exactly, and charge nothing: they stand in for MACs the
  // caller charges itself.
  noise::SramNoiseParams params;
  params.stuck_cell_rate = 0.05;
  const noise::SramCellModel model(params, 23);
  const auto image = random_image(15, 9, 4);
  std::vector<std::uint8_t> input(15, 0);
  for (std::uint32_t r = 0; r < 15; r += 2) input[r] = 1;
  auto storage = make_fast_storage(15, 9, &model, 64);
  storage->write(image);
  storage->write_back(phase(2, 0.26, 5));
  const StorageCounters before = storage->counters();
  std::vector<std::int64_t> acc(9, 0);
  for (std::uint32_t r = 0; r < 15; ++r) {
    if (input[r]) storage->accumulate_row(RowIndex(r), 1, acc);
  }
  storage->accumulate_row(RowIndex(3), 1, acc);
  storage->accumulate_row(RowIndex(3), -1, acc);
  EXPECT_EQ(storage->counters(), before);
  for (std::uint32_t c = 0; c < 9; ++c) {
    EXPECT_EQ(acc[c], storage->mac(ColIndex(c), input)) << "column " << c;
  }
}

TEST(Storage, AccumulateRowIsFastBackendOnly) {
  // Under kFlipOnAccess a MAC still changes the cells it reads, so a row
  // read between write-backs could not stand in for it; the bit-level
  // backend refuses the read under either policy.
  const noise::SramCellModel model(noise::SramNoiseParams{}, 19);
  for (const auto policy : {PseudoReadPolicy::kSettleAtWriteBack,
                            PseudoReadPolicy::kFlipOnAccess}) {
    auto storage = make_bit_level_storage(15, 9, &model, 0, 8, policy);
    storage->write(random_image(15, 9, 12));
    std::vector<std::int64_t> acc(9, 0);
    EXPECT_THROW(storage->accumulate_row(RowIndex(0), 1, acc), ConfigError);
    EXPECT_EQ(acc, std::vector<std::int64_t>(9, 0));
  }
}

TEST(Storage, LowVddCorruptsManyCells) {
  const noise::SramCellModel model(noise::SramNoiseParams{}, 7);
  const auto image = random_image(24, 16, 5);
  auto storage = make_fast_storage(24, 16, &model, 0);
  storage->write(image);
  storage->write_back(phase(0, 0.25, 6));
  EXPECT_GT(storage->counters().pseudo_read_flips, 50U);
}

TEST(Storage, NominalVddIsClean) {
  const noise::SramCellModel model(noise::SramNoiseParams{}, 7);
  const auto image = random_image(24, 16, 6);
  auto storage = make_fast_storage(24, 16, &model, 0);
  storage->write(image);
  storage->write_back(phase(0, 0.80, 6));
  EXPECT_EQ(storage->counters().pseudo_read_flips, 0U);
  for (std::uint32_t r = 0; r < 24; ++r) {
    for (std::uint32_t c = 0; c < 16; ++c) {
      EXPECT_EQ(storage->weight(RowIndex(r), ColIndex(c)), image[r * 16 + c]);
    }
  }
}

TEST(Storage, ZeroNoisyLsbsIsClean) {
  const noise::SramCellModel model(noise::SramNoiseParams{}, 7);
  const auto image = random_image(15, 9, 7);
  auto storage = make_fast_storage(15, 9, &model, 0);
  storage->write(image);
  storage->write_back(phase(0, 0.20, 0));
  EXPECT_EQ(storage->counters().pseudo_read_flips, 0U);
}

TEST(Storage, NoiseConfinedToLsbs) {
  const noise::SramCellModel model(noise::SramNoiseParams{}, 11);
  const auto image = random_image(15, 9, 8);
  for (unsigned lsbs : {1U, 3U, 6U}) {
    auto storage = make_fast_storage(15, 9, &model, 0);
    storage->write(image);
    storage->write_back(phase(0, 0.22, lsbs));
    const std::uint8_t mask = static_cast<std::uint8_t>(~((1U << lsbs) - 1U));
    for (std::uint32_t r = 0; r < 15; ++r) {
      for (std::uint32_t c = 0; c < 9; ++c) {
        EXPECT_EQ(storage->weight(RowIndex(r), ColIndex(c)) & mask, image[r * 9 + c] & mask)
            << "MSBs must stay intact with " << lsbs << " noisy LSBs";
      }
    }
  }
}

TEST(Storage, WriteBackRestoresBeforeCorrupting) {
  // Consecutive write-backs must not accumulate: the error pattern of
  // epoch k is applied to the GOLDEN image, not to epoch k-1's corruption.
  const noise::SramCellModel model(noise::SramNoiseParams{}, 13);
  const auto image = random_image(15, 9, 9);
  auto a = make_fast_storage(15, 9, &model, 0);
  a->write(image);
  a->write_back(phase(5, 0.30, 6));
  std::vector<std::uint8_t> after_direct;
  for (std::uint32_t r = 0; r < 15; ++r) {
    for (std::uint32_t c = 0; c < 9; ++c) {
      after_direct.push_back(a->weight(RowIndex(r), ColIndex(c)));
    }
  }
  auto b = make_fast_storage(15, 9, &model, 0);
  b->write(image);
  b->write_back(phase(0, 0.20, 6));  // heavy corruption first
  b->write_back(phase(5, 0.30, 6));  // then the same epoch-5 pattern
  std::size_t i = 0;
  for (std::uint32_t r = 0; r < 15; ++r) {
    for (std::uint32_t c = 0; c < 9; ++c, ++i) {
      EXPECT_EQ(b->weight(RowIndex(r), ColIndex(c)), after_direct[i]);
    }
  }
}

TEST(Storage, DisjointCellBasesDecorrelate) {
  const noise::SramCellModel model(noise::SramNoiseParams{}, 17);
  const auto image = random_image(15, 9, 10);
  auto a = make_fast_storage(15, 9, &model, 0);
  auto b = make_fast_storage(15, 9, &model, 15 * 9 * 8);
  a->write(image);
  b->write(image);
  a->write_back(phase(0, 0.25, 6));
  b->write_back(phase(0, 0.25, 6));
  std::size_t differing = 0;
  for (std::uint32_t r = 0; r < 15; ++r) {
    for (std::uint32_t c = 0; c < 9; ++c) {
      if (a->weight(RowIndex(r), ColIndex(c)) != b->weight(RowIndex(r), ColIndex(c))) ++differing;
    }
  }
  EXPECT_GT(differing, 0U);
}

TEST(Storage, CountersAccumulate) {
  auto storage = make_fast_storage(10, 4, nullptr, 0, 8);
  storage->write(random_image(10, 4, 11));
  const std::vector<std::uint8_t> input(10, 1);
  storage->mac(ColIndex(0), input);
  storage->mac(ColIndex(1), input);
  storage->write_back(phase(0, 0.8, 0));
  const auto& c = storage->counters();
  EXPECT_EQ(c.macs, 2U);
  EXPECT_EQ(c.mac_bit_reads, 2U * 10U * 8U);
  EXPECT_EQ(c.writeback_events, 1U);
  EXPECT_EQ(c.writeback_bits, 10U * 4U * 8U);
  storage->reset_counters();
  EXPECT_EQ(storage->counters().macs, 0U);
}

TEST(Storage, FlipOnAccessOnlyTouchesAccessedCells) {
  const noise::SramCellModel model(noise::SramNoiseParams{}, 19);
  const auto image = random_image(15, 9, 12);
  auto lazy = make_bit_level_storage(15, 9, &model, 0, 8,
                                     PseudoReadPolicy::kFlipOnAccess);
  lazy->write(image);
  lazy->write_back(phase(0, 0.22, 6));
  // Nothing accessed yet: weights must still be golden.
  for (std::uint32_t r = 0; r < 15; ++r) {
    for (std::uint32_t c = 0; c < 9; ++c) {
      EXPECT_EQ(lazy->weight(RowIndex(r), ColIndex(c)), image[r * 9 + c]);
    }
  }
  // Access column 3: exactly that column may corrupt.
  std::vector<std::uint8_t> input(15, 1);
  lazy->mac(ColIndex(3), input);
  for (std::uint32_t r = 0; r < 15; ++r) {
    for (std::uint32_t c = 0; c < 9; ++c) {
      if (c != 3) {
        EXPECT_EQ(lazy->weight(RowIndex(r), ColIndex(c)), image[r * 9 + c]);
      }
    }
  }
}

TEST(Storage, FlipOnAccessConvergesToSettledPattern) {
  // After touching every column, the lazy policy must match the settle
  // policy exactly (same hash-derived pattern).
  const noise::SramCellModel model(noise::SramNoiseParams{}, 23);
  const auto image = random_image(15, 9, 13);
  auto lazy = make_bit_level_storage(15, 9, &model, 77, 8,
                                     PseudoReadPolicy::kFlipOnAccess);
  auto settle = make_bit_level_storage(15, 9, &model, 77, 8,
                                       PseudoReadPolicy::kSettleAtWriteBack);
  lazy->write(image);
  settle->write(image);
  const auto p = phase(2, 0.30, 6);
  lazy->write_back(p);
  settle->write_back(p);
  const std::vector<std::uint8_t> input(15, 1);
  for (std::uint32_t c = 0; c < 9; ++c) lazy->mac(ColIndex(c), input);
  for (std::uint32_t r = 0; r < 15; ++r) {
    for (std::uint32_t c = 0; c < 9; ++c) {
      EXPECT_EQ(lazy->weight(RowIndex(r), ColIndex(c)), settle->weight(RowIndex(r), ColIndex(c)));
    }
  }
}

TEST(Storage, StickyWithinEpoch) {
  // Two MACs in the same epoch read the same corrupted values.
  const noise::SramCellModel model(noise::SramNoiseParams{}, 29);
  auto storage = make_bit_level_storage(15, 9, &model, 0, 8,
                                        PseudoReadPolicy::kFlipOnAccess);
  storage->write(random_image(15, 9, 14));
  storage->write_back(phase(0, 0.25, 6));
  const std::vector<std::uint8_t> input(15, 1);
  const auto first = storage->mac(ColIndex(4), input);
  const auto second = storage->mac(ColIndex(4), input);
  EXPECT_EQ(first, second);
}

TEST(Storage, ValidationErrors) {
  // Zero-sized windows fail fast with a diagnostic, not UB or silent
  // empties.
  EXPECT_THROW(make_fast_storage(0, 4, nullptr, 0), ConfigError);
  EXPECT_THROW(make_fast_storage(4, 0, nullptr, 0), ConfigError);
  EXPECT_THROW(make_bit_level_storage(0, 4, nullptr, 0), ConfigError);
  EXPECT_THROW(make_fast_storage(4, 4, nullptr, 0, 9), ConfigError);
  auto storage = make_fast_storage(4, 4, nullptr, 0);
  EXPECT_THROW(storage->write(std::vector<std::uint8_t>(3)), ConfigError);
  storage->write(std::vector<std::uint8_t>(16, 1));
  // Wrong input size trips the invariant.
  EXPECT_THROW(storage->mac(ColIndex(0), std::vector<std::uint8_t>(3)),
               InvariantError);
}

TEST(Storage, ReducedPrecision) {
  // 4-bit weights: values above 15 are never produced by MACs of 4-bit
  // images.
  auto storage = make_fast_storage(8, 2, nullptr, 0, 4);
  std::vector<std::uint8_t> image(16, 0x0F);
  storage->write(image);
  const std::vector<std::uint8_t> input(8, 1);
  EXPECT_EQ(storage->mac(ColIndex(0), input), 8 * 0x0F);
}

}  // namespace
}  // namespace cim::hw
