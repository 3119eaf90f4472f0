// The bit-sliced packed datapath (util/simd.hpp + cim/bitslice.hpp +
// WeightStorage::mac_packed) must be a pure re-layout: for any weight
// image, input vector, backend, pseudo-read policy and noise phase it has
// to reproduce the scalar MACs bit for bit — values, storage state AND
// hardware counters (which model physical row reads, not host
// instructions).
#include "cim/bitslice.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cim/adder_tree.hpp"
#include "cim/storage.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "util/simd.hpp"

namespace cim::hw {
namespace {

std::vector<std::uint8_t> random_image(std::uint32_t rows, std::uint32_t cols,
                                       std::uint32_t bits,
                                       std::uint64_t seed) {
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

PackedBits pack(const std::vector<std::uint8_t>& input) {
  PackedBits packed(static_cast<std::uint32_t>(input.size()));
  for (std::uint32_t r = 0; r < input.size(); ++r) {
    if (input[r]) packed.set(r);
  }
  return packed;
}

TEST(PackedBits, SetClearTestRoundTrip) {
  PackedBits bits(130);  // 3 words, last one partial
  EXPECT_EQ(bits.rows(), 130U);
  EXPECT_EQ(bits.words().size(), packed_words(130));
  for (const std::uint32_t r : {0U, 63U, 64U, 127U, 128U, 129U}) {
    EXPECT_FALSE(bits.test(r));
    bits.set(r);
    EXPECT_TRUE(bits.test(r));
  }
  EXPECT_EQ(bits.words()[0], (std::uint64_t{1} << 63) | 1U);
  bits.clear(63);
  EXPECT_FALSE(bits.test(63));
  EXPECT_EQ(bits.words()[0], 1U);
  bits.resize(10);
  EXPECT_EQ(bits.words().size(), 1U);
  EXPECT_FALSE(bits.test(0));
}

TEST(PackedBits, PackedWordsCount) {
  EXPECT_EQ(packed_words(1), 1U);
  EXPECT_EQ(packed_words(64), 1U);
  EXPECT_EQ(packed_words(65), 2U);
  EXPECT_EQ(packed_words(128), 2U);
  EXPECT_EQ(packed_words(129), 3U);
}

TEST(Simd, AndPopcountMatchesPortableOnAllBackends) {
  // Whatever backend the host resolves (avx2 / neon / portable), the
  // result is exact integer arithmetic and must equal the reference loop
  // at every length, including the vector-body thresholds and tails.
  util::Rng rng(11);
  for (const std::size_t n : {0U, 1U, 3U, 4U, 7U, 8U, 9U, 31U, 64U, 100U}) {
    std::vector<std::uint64_t> a(n);
    std::vector<std::uint64_t> b(n);
    for (auto& w : a) w = rng();
    for (auto& w : b) w = rng();
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expected += util::simd::popcount64(a[i] & b[i]);
    }
    EXPECT_EQ(util::simd::and_popcount(a.data(), b.data(), n), expected)
        << "n=" << n << " backend=" << util::simd::backend();
  }
}

TEST(BitPlaneMatrix, MacMatchesScalarDotProduct) {
  util::Rng rng(13);
  for (const std::uint32_t rows : {5U, 63U, 64U, 70U, 150U}) {
    for (const std::uint32_t bits : {1U, 4U, 8U}) {
      const std::uint32_t cols = 7;
      const auto image = random_image(rows, cols, bits, rows * 31 + bits);
      BitPlaneMatrix matrix;
      matrix.reset(rows, cols, bits);
      for (std::uint32_t r = 0; r < rows; ++r) {
        for (std::uint32_t c = 0; c < cols; ++c) {
          matrix.set_weight(r, c, image[static_cast<std::size_t>(r) * cols + c]);
        }
      }
      for (int trial = 0; trial < 10; ++trial) {
        std::vector<std::uint8_t> input(rows);
        for (auto& v : input) v = rng.chance(0.5) ? 1 : 0;
        const auto packed = pack(input);
        const auto col = static_cast<std::uint32_t>(rng.below(cols));
        std::uint64_t expected = 0;
        for (std::uint32_t r = 0; r < rows; ++r) {
          if (input[r]) {
            expected += image[static_cast<std::size_t>(r) * cols + col];
          }
        }
        EXPECT_EQ(matrix.mac(col, packed.words()), expected)
            << "rows=" << rows << " bits=" << bits;
        // plane_sums must be the per-bit decomposition of the same MAC.
        std::vector<std::uint32_t> sums(bits);
        matrix.plane_sums(col, packed.words(), sums);
        std::uint64_t recombined = 0;
        for (std::uint32_t b = 0; b < bits; ++b) {
          recombined += static_cast<std::uint64_t>(sums[b]) << b;
        }
        EXPECT_EQ(recombined, expected);
      }
    }
  }
}

TEST(BitPlaneMatrix, SetWeightOverwritesAllBits) {
  BitPlaneMatrix matrix;
  matrix.reset(4, 2, 8);
  matrix.set_weight(1, 0, 0xFF);
  matrix.set_weight(1, 0, 0x05);  // must clear the stale high bits
  PackedBits input(4);
  input.set(1);
  EXPECT_EQ(matrix.mac(0, input.words()), 0x05U);
  EXPECT_EQ(matrix.mac(1, input.words()), 0U);
}

// The central property: a randomized sweep over window shapes, weight
// precisions, backends, pseudo-read policies and noise phases asserting
// that dense, sparse and packed MACs agree on values, final weights and
// every StorageCounters field.
TEST(MacPacked, PropertySweepAllPathsBitIdentical) {
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
    const auto image = random_image(rows, cols, bits, 1000 + config);
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
      auto packed = make();
      for (auto* s : {&dense, &sparse, &packed}) {
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
        const auto packed_in = pack(input);
        const auto col = ColIndex(static_cast<std::uint32_t>(rng.below(cols)));
        const auto d = dense->mac(col, input);
        const auto s = sparse->mac_sparse(col, active);
        const auto p = packed->mac_packed(col, packed_in.words());
        EXPECT_EQ(p, d) << "packed vs dense rows=" << rows
                        << " bits=" << bits;
        EXPECT_EQ(p, s) << "packed vs sparse";
      }
      const auto& cd = dense->counters();
      const auto& cs = sparse->counters();
      const auto& cp = packed->counters();
      EXPECT_EQ(cs.macs, cd.macs);
      EXPECT_EQ(cp.macs, cd.macs);
      EXPECT_EQ(cs.mac_bit_reads, cd.mac_bit_reads);
      EXPECT_EQ(cp.mac_bit_reads, cd.mac_bit_reads);
      EXPECT_EQ(cs.pseudo_read_flips, cd.pseudo_read_flips);
      EXPECT_EQ(cp.pseudo_read_flips, cd.pseudo_read_flips);
      EXPECT_EQ(cs.writeback_bits, cd.writeback_bits);
      EXPECT_EQ(cp.writeback_bits, cd.writeback_bits);
      // Final weights identical across all three state machines.
      for (std::uint32_t r = 0; r < rows; ++r) {
        for (std::uint32_t c = 0; c < cols; ++c) {
          const auto w = dense->weight(RowIndex(r), ColIndex(c));
          ASSERT_EQ(sparse->weight(RowIndex(r), ColIndex(c)), w);
          ASSERT_EQ(packed->weight(RowIndex(r), ColIndex(c)), w);
        }
      }
    }
  }
}

TEST(MacPacked, LazyCorruptionTriggersIdentically) {
  // kFlipOnAccess pseudo-reads the whole addressed column on a packed MAC
  // exactly like the scalar paths: same flip pattern, same counters.
  const noise::SramCellModel model(noise::SramNoiseParams{}, 19);
  const auto image = random_image(15, 9, 8, 12);
  auto scalar = make_bit_level_storage(15, 9, &model, 0, 8,
                                       PseudoReadPolicy::kFlipOnAccess);
  auto packed = make_bit_level_storage(15, 9, &model, 0, 8,
                                       PseudoReadPolicy::kFlipOnAccess);
  scalar->write(image);
  packed->write(image);
  const auto p = phase(1, 0.24, 6);
  scalar->write_back(p);
  packed->write_back(p);
  std::vector<std::uint8_t> input(15, 0);
  std::vector<std::uint32_t> active;
  for (std::uint32_t r = 0; r < 15; r += 3) {
    input[r] = 1;
    active.push_back(r);
  }
  const auto packed_in = pack(input);
  for (std::uint32_t c = 0; c < 9; c += 2) {
    EXPECT_EQ(scalar->mac_sparse(ColIndex(c), active),
              packed->mac_packed(ColIndex(c), packed_in.words()));
    for (std::uint32_t r = 0; r < 15; ++r) {
      for (std::uint32_t cc = 0; cc < 9; ++cc) {
        ASSERT_EQ(scalar->weight(RowIndex(r), ColIndex(cc)),
                  packed->weight(RowIndex(r), ColIndex(cc)))
            << "after column " << c << " at " << r << "," << cc;
      }
    }
    EXPECT_EQ(scalar->counters().pseudo_read_flips,
              packed->counters().pseudo_read_flips);
  }
}

TEST(MacPacked, BitLevelTreeCountersMatchSparse) {
  // The bit-level backend's packed path must charge the AdderTree like
  // the sparse path (full fan-in per plane, one reduction per plane) —
  // verified indirectly: two identical request sequences leave identical
  // mac counters, and directly on a standalone tree below.
  AdderTree tree(10);
  std::vector<std::uint32_t> sums = {3, 7, 1};
  const auto value = tree.shift_and_add_sparse(sums);
  EXPECT_EQ(value, 3U + (7U << 1) + (1U << 2));
  EXPECT_EQ(tree.reductions(), 3U);
  EXPECT_EQ(tree.total_adder_ops(), 3U * 9U);
}

TEST(DegenerateConfigs, FailFastWithConfigErrors) {
  // Zero-sized windows and fan-in/plane mismatches must throw ConfigError
  // with a diagnostic, not UB or silent empties.
  EXPECT_THROW(make_fast_storage(0, 4, nullptr, 0), ConfigError);
  EXPECT_THROW(make_fast_storage(4, 0, nullptr, 0), ConfigError);
  EXPECT_THROW(make_bit_level_storage(0, 4, nullptr, 0), ConfigError);

  BitPlaneMatrix matrix;
  EXPECT_THROW(matrix.reset(0, 4, 8), ConfigError);
  EXPECT_THROW(matrix.reset(4, 0, 8), ConfigError);
  EXPECT_THROW(matrix.reset(4, 4, 0), ConfigError);
  EXPECT_THROW(matrix.reset(4, 4, 9), ConfigError);

  AdderTree tree(8);
  EXPECT_THROW(tree.reduce(std::vector<std::uint8_t>(7)), ConfigError);
  EXPECT_THROW(tree.shift_and_add(std::vector<std::uint8_t>(15), 2),
               ConfigError);
  EXPECT_THROW(tree.shift_and_add(std::vector<std::uint8_t>(0), 0),
               ConfigError);
  EXPECT_THROW(
      tree.shift_and_add_sparse(std::vector<std::uint32_t>{}),
      ConfigError);
  // A plane sum exceeding the fan-in is physically impossible input.
  EXPECT_THROW(
      tree.shift_and_add_sparse(std::vector<std::uint32_t>{9}),
      ConfigError);
  EXPECT_THROW(AdderTree{0}, ConfigError);

  // Packed input word-count mismatches fail fast on both backends.
  for (const bool bit_level : {false, true}) {
    auto storage = bit_level ? make_bit_level_storage(70, 3, nullptr, 0)
                             : make_fast_storage(70, 3, nullptr, 0);
    storage->write(std::vector<std::uint8_t>(70 * 3, 1));
    const std::vector<std::uint64_t> short_input(1, ~0ULL);
    EXPECT_THROW(storage->mac_packed(ColIndex(0), short_input), ConfigError);
  }
}

}  // namespace
}  // namespace cim::hw
