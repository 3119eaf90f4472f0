#include "cim/storage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

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
  // A plane of ~77 000 weights, written back by the fast backend's own
  // write_back (a batch of this one storage, in pooled tasks): every
  // default-schedule write-back must match the bit-level oracle weight for
  // weight and counter for counter. (Storage.BatchMatchesPerStorage covers
  // batches of several storages.)
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
  // FastStorage derives its stuck-adjusted image from the written weights,
  // and each write-back the cells' preferred bits against it. A second
  // write() to the same storage must rebuild the image: image B is taken through every default-schedule
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

TEST(Storage, BatchMatchesPerStorage) {
  // One StorageBatch over storages below, at and above one task — plus a
  // bit-level storage, which the batch runs as one indivisible task — must
  // leave every weight and every counter exactly where per-storage
  // write()/write_back() calls leave them, through every default-schedule
  // write-back, the noise-free ones (noisy_lsbs = 0) included.
  // tests/CMakeLists.txt reruns this under 1, 2 and 8 pool workers.
  struct Shape {
    std::uint32_t rows;
    std::uint32_t cols;
    std::uint32_t bits;
    bool bit_level;
  };
  const std::vector<Shape> shapes = {
      {15, 9, 8, false},     // below one task
      {64, 64, 8, false},    // exactly one task
      {80, 64, 5, false},    // just over one task, narrow weights
      {12, 10, 8, true},     // indivisible oracle backend
      {131, 140, 8, false},  // over four tasks
  };
  const noise::AnnealSchedule schedule;
  std::vector<noise::SchedulePhase> phases;
  for (std::size_t it = 0; it < schedule.total_iterations(); ++it) {
    if (schedule.at(it).write_back) phases.push_back(schedule.at(it));
  }
  ASSERT_EQ(phases.front().noisy_lsbs, 6U);
  ASSERT_EQ(phases.back().noisy_lsbs, 0U);
  for (const double stuck_rate : {0.0, 0.01}) {
    noise::SramNoiseParams params;
    params.stuck_cell_rate = stuck_rate;
    const noise::SramCellModel model(params, 71);
    std::vector<std::unique_ptr<WeightStorage>> batched;
    std::vector<std::unique_ptr<WeightStorage>> single;
    std::vector<WeightStorage*> members;
    std::vector<std::uint8_t> images;
    std::uint64_t cell_base = 5;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const Shape& sh = shapes[i];
      for (auto* twins : {&batched, &single}) {
        twins->push_back(
            sh.bit_level
                ? make_bit_level_storage(sh.rows, sh.cols, &model, cell_base,
                                         sh.bits)
                : make_fast_storage(sh.rows, sh.cols, &model, cell_base,
                                    sh.bits));
      }
      members.push_back(batched.back().get());
      const auto image = random_image(sh.rows, sh.cols, 80 + i, sh.bits);
      single.back()->write(image);
      images.insert(images.end(), image.begin(), image.end());
      cell_base += static_cast<std::uint64_t>(sh.rows) * sh.cols * sh.bits;
    }
    StorageBatch batch(members);
    ASSERT_EQ(batch.weights(), images.size());
    ASSERT_GT(batch.tasks(), 2U);
    batch.write(images);
    const auto expect_equal = [&](const std::string& when) {
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        for (std::uint32_t r = 0; r < shapes[i].rows; ++r) {
          for (std::uint32_t c = 0; c < shapes[i].cols; ++c) {
            ASSERT_EQ(batched[i]->weight(RowIndex(r), ColIndex(c)),
                      single[i]->weight(RowIndex(r), ColIndex(c)))
                << when << " storage " << i << " weight " << r << "," << c
                << " stuck rate " << stuck_rate;
          }
        }
        ASSERT_EQ(batched[i]->counters(), single[i]->counters())
            << when << " storage " << i << " stuck rate " << stuck_rate;
      }
    };
    expect_equal("write");
    for (const auto& p : phases) {
      batch.write_back(p);
      for (auto& storage : single) storage->write_back(p);
      expect_equal("epoch " + std::to_string(p.epoch) + " noisy " +
                   std::to_string(p.noisy_lsbs));
    }
    EXPECT_GT(batched.back()->counters().pseudo_read_flips, 0U);
  }
}

TEST(Storage, PreparedWriteBackMatchesDirect) {
  // A batch over a mixed set — noisy fast storages below and above one
  // task, a noise-free fast storage and a bit-level one — runs the default
  // schedule through run_epochs(), which settles every noisy epoch up
  // front and commits each epoch's write-back before its body. Its twin
  // holds a bit-level oracle of every storage and writes each back phase
  // by phase. Inside every epoch body, weights, all five counters and one
  // all-rows MAC per column must equal the twin's after that epoch's
  // write-back — the body reads the committed epoch, not a later one —
  // through every phase, the noise-free ones included. The same holds for
  // a one-task batch of the small storages, which runs inline.
  // tests/CMakeLists.txt reruns this under 1, 2 and 8 pool workers.
  struct Shape {
    std::uint32_t rows;
    std::uint32_t cols;
    bool noisy;
    bool bit_level;
  };
  const std::vector<Shape> shapes = {
      {15, 9, true, false},     // below one task
      {131, 140, true, false},  // over four tasks
      {40, 50, false, false},   // noise-free fast storage
      {12, 10, true, true},     // bit-level oracle
      {70, 70, true, false},    // over one task
  };
  constexpr std::uint64_t kEpochBase = 5;
  const noise::AnnealSchedule schedule;
  ASSERT_GT(schedule.at(0).noisy_lsbs, 0U);
  ASSERT_TRUE(schedule.ends_noise_free());
  for (const double stuck_rate : {0.0, 0.01}) {
    noise::SramNoiseParams params;
    params.stuck_cell_rate = stuck_rate;
    const noise::SramCellModel model(params, 91);
    for (const std::vector<std::size_t>& set :
         {std::vector<std::size_t>{0, 1, 2, 3, 4},
          std::vector<std::size_t>{0, 2, 3}}) {
      std::vector<std::unique_ptr<WeightStorage>> batched;
      std::vector<std::unique_ptr<WeightStorage>> oracle;
      std::vector<WeightStorage*> members;
      std::vector<std::uint8_t> images;
      std::uint64_t cell_base = 9;
      for (const std::size_t i : set) {
        const Shape& sh = shapes[i];
        const noise::SramCellModel* m = sh.noisy ? &model : nullptr;
        batched.push_back(
            sh.bit_level
                ? make_bit_level_storage(sh.rows, sh.cols, m, cell_base)
                : make_fast_storage(sh.rows, sh.cols, m, cell_base));
        oracle.push_back(
            make_bit_level_storage(sh.rows, sh.cols, m, cell_base));
        members.push_back(batched.back().get());
        const auto image = random_image(sh.rows, sh.cols, 90 + i);
        oracle.back()->write(image);
        images.insert(images.end(), image.begin(), image.end());
        cell_base += static_cast<std::uint64_t>(sh.rows) * sh.cols * 8;
      }
      StorageBatch batch(members);
      ASSERT_EQ(batch.tasks() == 1, set.size() < shapes.size());
      batch.write(images);
      const std::string where =
          std::to_string(batch.tasks()) + "-task batch, stuck rate " +
          std::to_string(stuck_rate);
      const auto expect_equal = [&](const std::string& when) {
        for (std::size_t k = 0; k < set.size(); ++k) {
          const Shape& sh = shapes[set[k]];
          for (std::uint32_t r = 0; r < sh.rows; ++r) {
            for (std::uint32_t c = 0; c < sh.cols; ++c) {
              ASSERT_EQ(batched[k]->weight(RowIndex(r), ColIndex(c)),
                        oracle[k]->weight(RowIndex(r), ColIndex(c)))
                  << when << " storage " << set[k] << " weight " << r << ","
                  << c << ", " << where;
            }
          }
          ASSERT_EQ(batched[k]->counters(), oracle[k]->counters())
              << when << " storage " << set[k] << ", " << where;
        }
      };
      // One all-rows MAC per column of every storage.
      const auto mac_all = [&](const std::string& when) {
        for (std::size_t k = 0; k < set.size(); ++k) {
          const Shape& sh = shapes[set[k]];
          std::vector<std::uint32_t> rows(sh.rows);
          for (std::uint32_t r = 0; r < sh.rows; ++r) rows[r] = r;
          for (std::uint32_t c = 0; c < sh.cols; ++c) {
            ASSERT_EQ(batched[k]->mac_sparse(ColIndex(c), rows),
                      oracle[k]->mac_sparse(ColIndex(c), rows))
                << when << " storage " << set[k] << " column " << c << ", "
                << where;
          }
        }
      };
      const std::size_t step = schedule.params().iterations_per_step;
      std::size_t next_begin = 0;
      batch.run_epochs(schedule, kEpochBase, [&](std::size_t begin,
                                                 std::size_t end) {
        ASSERT_EQ(begin, next_begin);
        ASSERT_EQ(end,
                  std::min(begin + step, schedule.total_iterations()));
        next_begin = end;
        noise::SchedulePhase p = schedule.at(begin);
        p.epoch += kEpochBase;
        for (auto& storage : oracle) storage->write_back(p);
        const std::string when = "epoch " + std::to_string(p.epoch) +
                                 " noisy " + std::to_string(p.noisy_lsbs);
        expect_equal(when);
        mac_all(when);
        expect_equal(when + " after MACs");
      });
      EXPECT_EQ(next_begin, schedule.total_iterations()) << where;
      EXPECT_GT(batched[0]->counters().pseudo_read_flips, 0U) << where;
    }
  }
}

TEST(Storage, RunEpochsMatchesBitLevelSchedules) {
  // run_epochs() settles every noisy epoch in one pass and packs the later
  // epochs' flips into flip words whose width it picks from the schedule:
  // none (one noisy epoch), 2 bytes (the default's 15 bits), 4 bytes
  // (lsb_start = 8: 28 bits) and, past 32 bits, a second pass mid-anneal
  // (12 noisy LSBs, clamped to 8 per epoch). Two more sit at the flip
  // table's ends: a supply at snm_v0 leaves no read margin (every entry
  // 0, every anti-preferred cell flips), the nominal one flips no cell of
  // a mid-range ΔVth class (entry 65). One batch runs all of them in
  // turn over a mix of noisy fast storages (8- and 5-bit weights, below
  // and above one task), a model-less fast storage and a bit-level one,
  // with vdd_step = 0, short last epochs and an epoch base. Inside every
  // epoch body, weights and all five counters must equal bit-level twins
  // written back phase by phase. tests/CMakeLists.txt reruns this under
  // 1, 2 and 8 pool workers.
  struct Shape {
    std::uint32_t rows;
    std::uint32_t cols;
    std::uint32_t bits;
    bool noisy;
    bool bit_level;
  };
  const std::vector<Shape> shapes = {
      {15, 9, 8, true, false},    // below one task
      {70, 70, 8, true, false},   // over one task
      {80, 64, 5, true, false},   // narrow weights
      {40, 50, 8, false, false},  // no noise model
      {12, 10, 8, true, true},    // bit-level
  };
  struct Case {
    const char* name;
    std::size_t iterations;
    std::size_t step;
    double vdd_start;
    double vdd_step;
    unsigned lsb_start;
    unsigned schedule_bits;
    std::uint64_t epoch_base;
  };
  const Case cases[] = {
      {"default", 400, 50, 0.30, 0.04, 6, 8, 0},
      {"lsb_start 8, flat vdd", 430, 50, 0.30, 0.0, 8, 8, 7},
      {"one noisy epoch", 100, 40, 0.30, 0.04, 1, 8, 3},
      {"two passes", 690, 50, 0.30, 0.04, 12, 12, 11},
      {"noise-free", 100, 60, 0.30, 0.04, 0, 8, 2},
      {"no read margin", 300, 50, 0.18, 0.0, 6, 8, 5},
      {"nominal supply", 330, 60, 0.80, 0.04, 5, 8, 9},
  };
  for (const double stuck_rate : {0.0, 0.01}) {
    noise::SramNoiseParams params;
    params.stuck_cell_rate = stuck_rate;
    const noise::SramCellModel model(params, 97);
    std::vector<std::unique_ptr<WeightStorage>> batched;
    std::vector<std::unique_ptr<WeightStorage>> oracle;
    std::vector<WeightStorage*> members;
    std::vector<std::uint8_t> images;
    std::uint64_t cell_base = 3;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const Shape& sh = shapes[i];
      const noise::SramCellModel* m = sh.noisy ? &model : nullptr;
      batched.push_back(
          sh.bit_level
              ? make_bit_level_storage(sh.rows, sh.cols, m, cell_base, sh.bits)
              : make_fast_storage(sh.rows, sh.cols, m, cell_base, sh.bits));
      oracle.push_back(
          make_bit_level_storage(sh.rows, sh.cols, m, cell_base, sh.bits));
      members.push_back(batched.back().get());
      const auto image = random_image(sh.rows, sh.cols, 70 + i, sh.bits);
      oracle.back()->write(image);
      images.insert(images.end(), image.begin(), image.end());
      cell_base += static_cast<std::uint64_t>(sh.rows) * sh.cols * sh.bits;
    }
    StorageBatch batch(members);
    ASSERT_GT(batch.tasks(), 2U);
    batch.write(images);
    for (const Case& c : cases) {
      noise::AnnealSchedule::Params sp;
      sp.total_iterations = c.iterations;
      sp.iterations_per_step = c.step;
      sp.vdd_start = c.vdd_start;
      sp.vdd_step = c.vdd_step;
      sp.lsb_start = c.lsb_start;
      sp.weight_bits = c.schedule_bits;
      const noise::AnnealSchedule schedule(sp);
      const std::string where =
          std::string(c.name) + ", stuck rate " + std::to_string(stuck_rate);
      const noise::PhaseSettler first(model, c.epoch_base, c.vdd_start);
      for (unsigned k1 = 0; k1 <= 64 && c.vdd_start <= params.snm_v0; ++k1) {
        ASSERT_EQ(first.flip_from(k1), 0U) << "k1 " << k1 << ", " << where;
      }
      if (c.vdd_start == sp.vdd_nominal) {
        ASSERT_EQ(first.flip_from(32), 65U) << where;
      }
      std::size_t bodies = 0;
      batch.run_epochs(schedule, c.epoch_base, [&](std::size_t begin,
                                                   std::size_t end) {
        ASSERT_EQ(begin, bodies * c.step) << where;
        ASSERT_EQ(end, std::min(begin + c.step, c.iterations)) << where;
        ++bodies;
        noise::SchedulePhase p = schedule.at(begin);
        p.epoch += c.epoch_base;
        for (auto& storage : oracle) storage->write_back(p);
        for (std::size_t k = 0; k < shapes.size(); ++k) {
          for (std::uint32_t r = 0; r < shapes[k].rows; ++r) {
            for (std::uint32_t col = 0; col < shapes[k].cols; ++col) {
              ASSERT_EQ(batched[k]->weight(RowIndex(r), ColIndex(col)),
                        oracle[k]->weight(RowIndex(r), ColIndex(col)))
                  << "epoch " << p.epoch << " storage " << k << " weight "
                  << r << "," << col << ", " << where;
            }
          }
          ASSERT_EQ(batched[k]->counters(), oracle[k]->counters())
              << "epoch " << p.epoch << " storage " << k << ", " << where;
        }
      });
      EXPECT_EQ(bodies, schedule.epochs()) << where;
    }
    EXPECT_GT(batched[1]->counters().pseudo_read_flips, 0U);
    EXPECT_GT(batched[2]->counters().pseudo_read_flips, 0U);
  }
}

TEST(Storage, SettleTargetsAgree) {
  // The settle pass is one source compiled for the base ISA and for
  // AVX-512 (settle_range()). Both builds run on the same inputs and must
  // give the same settled bytes, flip words and per-epoch flip counts,
  // and the base build must match the per-cell oracle,
  // SramCellModel::settled_value, for every cell and epoch. The inputs cover
  // ranges that start mid-storage and block tails that are not a
  // multiple of 8 or 256, a 33-epoch pass, both flip-word widths, the
  // flip table's ends (no read margin: every entry 0; nominal supply:
  // entry 65), stuck cells, narrow weights and cell ids above 2^32.
  struct Pass {
    const char* name;
    std::vector<unsigned> lsbs;
    double vdd_start;
    double vdd_step;
    std::uint64_t epoch0;
  };
  std::vector<unsigned> long_pass = {8};
  long_pass.resize(33, 1);
  const Pass passes[] = {
      {"default", {6, 5, 4, 3, 2, 1}, 0.30, 0.04, 0},
      {"33 epochs", long_pass, 0.30, 0.01, 17},
      {"28-bit word", {8, 7, 6, 5, 4, 3, 2, 1}, 0.30, 0.04, 4},
      {"one epoch", {3}, 0.34, 0.0, 9},
      {"no read margin", {6, 5, 4, 3, 2, 1}, 0.18, 0.0, 2},
      {"nominal supply", {5, 4, 3, 2, 1}, 0.80, 0.0, 6},
  };
  struct Range {
    std::size_t begin;
    std::size_t end;
  };
  constexpr std::size_t kWeights = 1003;
  const Range ranges[] = {{0, kWeights}, {3, 517}, {259, 268}, {700, 701}};
  const bool avx512 = settle_target() == SettleTarget::kAvx512;
  if (!avx512) {
    std::printf(
        "SettleTargetsAgree: AVX-512 half skipped: this CPU lacks one of "
        "AVX-512 F, DQ, VL, BW, VPOPCNTDQ\n");
  }
  std::size_t checked_flips = 0;
  for (const double stuck_rate : {0.0, 0.02}) {
    noise::SramNoiseParams params;
    params.stuck_cell_rate = stuck_rate;
    const noise::SramCellModel model(params, 41);
    for (const std::uint32_t bits : {8U, 5U}) {
      const std::uint64_t cell_base = (1ULL << 32) + 12345;
      // The written image with the stuck cells at their preferred value,
      // as FastStorage::write leaves it.
      auto golden = random_image(1, kWeights, 9 + bits, bits);
      for (std::size_t w = 0; w < kWeights; ++w) {
        for (std::uint32_t b = 0; b < bits; ++b) {
          const std::uint64_t id = cell_base + w * bits + b;
          if (model.is_stuck(id)) {
            golden[w] = static_cast<std::uint8_t>(
                (golden[w] & ~(1U << b)) |
                (noise::cell_hash::preferred_bit(model.seed(), id) << b));
          }
        }
      }
      for (const Pass& pass : passes) {
        // The flip-word packing of StorageBatch::settle.
        std::vector<unsigned> shifts;
        std::vector<noise::PhaseSettler> settlers;
        unsigned word_bits = 0;
        for (std::size_t e = 0; e < pass.lsbs.size(); ++e) {
          const unsigned lsbs = pass.lsbs[e];
          const unsigned at = word_bits % 16 + lsbs > 16
                                  ? (word_bits + 15) / 16 * 16
                                  : word_bits;
          shifts.push_back(e == 0 ? 0 : 8 + at);
          word_bits = e == 0 ? 0 : at + lsbs;
          settlers.emplace_back(model, pass.epoch0 + e,
                                pass.vdd_start + pass.vdd_step * e);
        }
        ASSERT_LE(word_bits, 32U) << pass.name;
        const unsigned halves = (word_bits + 15) / 16;
        if (pass.vdd_start == params.snm_v0) {
          ASSERT_EQ(settlers[0].flip_from(40), 0U) << pass.name;
        }
        if (pass.vdd_start == params.nominal_vdd) {
          ASSERT_EQ(settlers[0].flip_from(32), 65U) << pass.name;
        }
        for (const Range& range : ranges) {
          const std::string where =
              std::string(pass.name) + ", stuck rate " +
              std::to_string(stuck_rate) + ", " + std::to_string(bits) +
              " bits, weights " + std::to_string(range.begin) + ".." +
              std::to_string(range.end);
          struct Out {
            std::vector<std::uint8_t> current;
            std::vector<std::uint16_t> flips;
            std::vector<std::uint64_t> epoch_flips;
          };
          const auto run = [&](SettleTarget target) {
            Out out{std::vector<std::uint8_t>(kWeights, 0xA5),
                    std::vector<std::uint16_t>(kWeights * 2, 0x5A5A),
                    std::vector<std::uint64_t>(pass.lsbs.size(), 7)};
            settle_range(target, {.seed = model.seed(),
                                  .cell_base = cell_base,
                                  .bits = bits,
                                  .settlers = settlers,
                                  .lsbs = pass.lsbs,
                                  .shifts = shifts,
                                  .golden = golden.data(),
                                  .current = out.current.data(),
                                  .flips = out.flips.data(),
                                  .halves = halves,
                                  .begin = range.begin,
                                  .end = range.end,
                                  .epoch_flips = out.epoch_flips.data()});
            return out;
          };
          const Out base = run(SettleTarget::kBase);
          if (avx512) {
            const Out wide = run(SettleTarget::kAvx512);
            ASSERT_EQ(wide.current, base.current) << where;
            ASSERT_EQ(wide.flips, base.flips) << where;
            ASSERT_EQ(wide.epoch_flips, base.epoch_flips) << where;
          }
          // The oracle, cell by cell; weights outside the range and flip
          // words past `halves` keep their fill.
          std::vector<std::uint64_t> flips_per_epoch(pass.lsbs.size(), 7);
          for (std::size_t w = 0; w < kWeights; ++w) {
            const bool inside = w >= range.begin && w < range.end;
            if (!inside) {
              ASSERT_EQ(base.current[w], 0xA5) << "weight " << w << ", "
                                               << where;
              continue;
            }
            std::uint64_t acc = base.current[w] ^ golden[w];
            for (unsigned h = 0; h < halves; ++h) {
              acc |= static_cast<std::uint64_t>(base.flips[w * halves + h])
                     << (8 + 16 * h);
            }
            for (std::size_t e = 0; e < pass.lsbs.size(); ++e) {
              for (std::uint32_t b = 0; b < std::min(pass.lsbs[e], bits);
                   ++b) {
                const bool bit = ((golden[w] >> b) & 1U) != 0;
                const bool flip =
                    model.settled_value(cell_base + w * bits + b,
                                        pass.epoch0 + e,
                                        pass.vdd_start + pass.vdd_step * e,
                                        bit) != bit;
                ASSERT_EQ((acc >> (shifts[e] + b)) & 1U, flip ? 1U : 0U)
                    << "weight " << w << " bit " << b << " epoch " << e
                    << ", " << where;
                acc &= ~(1ULL << (shifts[e] + b));
                flips_per_epoch[e] += flip ? 1 : 0;
                checked_flips += flip ? 1 : 0;
              }
            }
            ASSERT_EQ(acc, 0U) << "stray flip bits, weight " << w << ", "
                               << where;
          }
          ASSERT_EQ(base.epoch_flips, flips_per_epoch) << where;
          if (halves < 2) {
            for (std::size_t w = 0; w < kWeights; ++w) {
              ASSERT_EQ(base.flips[kWeights + w], 0x5A5A) << where;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked_flips, 10000U);

  // A batch built for the base ISA settles every epoch of an anneal like
  // one built for this CPU, over two pooled tasks.
  const noise::SramCellModel model(noise::SramNoiseParams{}, 43);
  auto cpu = make_fast_storage(70, 61, &model, 5);
  auto base_isa = make_fast_storage(70, 61, &model, 5);
  StorageBatch cpu_batch({cpu.get()});
  StorageBatch base_batch({base_isa.get()}, SettleTarget::kBase);
  ASSERT_EQ(base_batch.tasks(), 2U);
  const auto image = random_image(70, 61, 44);
  cpu_batch.write(image);
  base_batch.write(image);
  const noise::AnnealSchedule schedule;
  const auto plane = [](const WeightStorage& storage) {
    std::vector<std::uint8_t> weights;
    for (std::uint32_t r = 0; r < storage.rows(); ++r) {
      for (std::uint32_t c = 0; c < storage.cols(); ++c) {
        weights.push_back(storage.weight(RowIndex(r), ColIndex(c)));
      }
    }
    return weights;
  };
  std::vector<std::vector<std::uint8_t>> planes;
  cpu_batch.run_epochs(schedule, 3, [&](std::size_t, std::size_t) {
    planes.push_back(plane(*cpu));
  });
  std::size_t e = 0;
  base_batch.run_epochs(schedule, 3, [&](std::size_t, std::size_t) {
    ASSERT_LT(e, planes.size());
    EXPECT_EQ(plane(*base_isa), planes[e]) << "epoch " << e;
    ++e;
  });
  EXPECT_EQ(e, planes.size());
  EXPECT_EQ(base_isa->counters(), cpu->counters());
  EXPECT_GT(cpu->counters().pseudo_read_flips, 0U);
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
// weight precisions, backends and noise phases: dense and sparse MACs
// agree on values, final weights and every StorageCounters field.
TEST(Storage, DenseSparsePropertySweep) {
  const noise::SramCellModel model(noise::SramNoiseParams{}, 101);
  util::Rng rng(17);
  for (int config = 0; config < 12; ++config) {
    const std::uint32_t rows = 2 + static_cast<std::uint32_t>(rng.below(90));
    const std::uint32_t cols = 1 + static_cast<std::uint32_t>(rng.below(12));
    const std::uint32_t bits = 1 + static_cast<std::uint32_t>(rng.below(8));
    const bool noisy = rng.chance(0.7);
    const auto image = random_image(rows, cols, 1000 + config, bits);
    for (const bool bit_level : {false, true}) {
      const noise::SramCellModel* m = noisy ? &model : nullptr;
      const auto make = [&] {
        return bit_level ? make_bit_level_storage(rows, cols, m, 4096, bits)
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

TEST(Storage, SettledRowsSumToColumnMacs) {
  // The settled (noisy, stuck) rows, summed over the set inputs, rebuild
  // every column MAC exactly, and reading them charges nothing: they
  // stand in for MACs the caller charges itself.
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
    const std::span<const std::uint8_t> row =
        storage->settled_row(RowIndex(r));
    ASSERT_EQ(row.size(), 9U);
    for (std::uint32_t c = 0; c < 9; ++c) {
      EXPECT_EQ(row[c], storage->weight(RowIndex(r), ColIndex(c)));
      if (input[r]) acc[c] += row[c];
    }
  }
  EXPECT_EQ(storage->counters(), before);
  for (std::uint32_t c = 0; c < 9; ++c) {
    EXPECT_EQ(acc[c], storage->mac(ColIndex(c), input)) << "column " << c;
  }
}

TEST(Storage, SettledRowIsFastBackendOnly) {
  // The bit-level backend keeps no byte plane to return a row from; it
  // refuses the read.
  const noise::SramCellModel model(noise::SramNoiseParams{}, 19);
  auto storage = make_bit_level_storage(15, 9, &model, 0);
  storage->write(random_image(15, 9, 12));
  EXPECT_THROW(static_cast<void>(storage->settled_row(RowIndex(0))),
               ConfigError);
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

TEST(Storage, CountersPrintByName) {
  // A failed counter comparison must say which counter differed, not
  // dump the struct's bytes.
  const StorageCounters counters{1, 2, 3, 4, 5};
  EXPECT_EQ(::testing::PrintToString(counters),
            "{macs=1, mac_bit_reads=2, writeback_events=3, "
            "writeback_bits=4, pseudo_read_flips=5}");
}

TEST(Storage, StickyWithinEpoch) {
  // MACs are pure between write-backs on both backends: a repeated MAC
  // reads the same corrupted values and changes no weight and no flip
  // count. The swap ΔE cache and charge_repeat_macs() rely on it.
  const noise::SramCellModel model(noise::SramNoiseParams{}, 29);
  const auto image = random_image(15, 9, 14);
  for (const bool bit_level : {false, true}) {
    auto storage = bit_level ? make_bit_level_storage(15, 9, &model, 0)
                             : make_fast_storage(15, 9, &model, 0);
    storage->write(image);
    storage->write_back(phase(0, 0.25, 6));
    const auto weights = [&] {
      std::vector<std::uint8_t> out;
      for (std::uint32_t r = 0; r < 15; ++r) {
        for (std::uint32_t c = 0; c < 9; ++c) {
          out.push_back(storage->weight(RowIndex(r), ColIndex(c)));
        }
      }
      return out;
    };
    const auto settled = weights();
    const std::uint64_t flips = storage->counters().pseudo_read_flips;
    EXPECT_GT(flips, 0U);
    const std::vector<std::uint8_t> input(15, 1);
    const std::vector<std::uint32_t> active = {0, 4, 7, 14};
    const auto first = storage->mac(ColIndex(4), input);
    const auto first_sparse = storage->mac_sparse(ColIndex(2), active);
    EXPECT_EQ(storage->mac(ColIndex(4), input), first);
    EXPECT_EQ(storage->mac_sparse(ColIndex(2), active), first_sparse);
    EXPECT_EQ(weights(), settled) << (bit_level ? "bit-level" : "fast");
    EXPECT_EQ(storage->counters().pseudo_read_flips, flips)
        << (bit_level ? "bit-level" : "fast");
  }
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
  // A batch checks the whole image, and every weight's precision, before
  // any storage changes.
  auto narrow = make_fast_storage(2, 2, nullptr, 64, 4);
  StorageBatch batch({storage.get(), narrow.get()});
  EXPECT_THROW(batch.write(std::vector<std::uint8_t>(19, 1)), ConfigError);
  std::vector<std::uint8_t> images(20, 1);
  images.back() = 16;  // over 4 bits
  EXPECT_THROW(batch.write(images), ConfigError);
  EXPECT_EQ(storage->weight(RowIndex(0), ColIndex(0)), 1U);
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
