// Bit-sliced (structure-of-arrays) views of the CIM datapath.
//
// The paper's throughput rests on the 14T-cell array evaluating many
// cells per cycle: every cell's NOR product is one bit, so 64 cells of a
// bit-plane fit one host word and the adder-tree reduction becomes
// AND + popcount (util/simd.hpp). This header owns the two packed
// representations the Ising annealers' packed kernels run on:
//
//   * PackedBits     — a spin/input vector as packed words (bit r of word
//                      r/64 is row r), maintained incrementally by the
//                      annealer exactly like its dense 0/1 mask;
//   * BitPlaneMatrix — the column-major bit-plane mirror of a rows×cols
//                      multi-bit weight image: plane (col, b) is
//                      packed_words(rows) contiguous words and the `bits`
//                      planes of one column are contiguous (LSB first),
//                      so one MAC streams bits×words sequential words.
//
// These are *mirrors*, not a third storage backend: the byte/bit-cell
// arrays of cim/storage.cpp stay authoritative (noise corruption mutates
// them), and the storages repack the mirror lazily after each write /
// write-back. Results are bit-identical to the scalar paths — popcount
// per plane followed by shift-and-add is exactly the adder-tree sum — and
// the hardware counters are charged by the storage entry points, never
// here (the counter model charges physical work, not host instructions).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace cim::hw {

/// Number of 64-bit words holding `rows` packed bits.
constexpr std::uint32_t packed_words(std::uint32_t rows) {
  return (rows + 63U) / 64U;
}

/// A packed 0/1 row vector (one bit per window row).
class PackedBits {
 public:
  PackedBits() = default;
  explicit PackedBits(std::uint32_t rows) { resize(rows); }

  /// Resizes to `rows` bits, all clear.
  void resize(std::uint32_t rows) {
    rows_ = rows;
    words_.assign(packed_words(rows), 0);
  }

  std::uint32_t rows() const { return rows_; }

  void set(std::uint32_t r) {
    CIM_ASSERT(r < rows_);
    words_[r >> 6] |= std::uint64_t{1} << (r & 63U);
  }
  void clear(std::uint32_t r) {
    CIM_ASSERT(r < rows_);
    words_[r >> 6] &= ~(std::uint64_t{1} << (r & 63U));
  }
  bool test(std::uint32_t r) const {
    CIM_ASSERT(r < rows_);
    return ((words_[r >> 6] >> (r & 63U)) & 1U) != 0;
  }

  std::span<const std::uint64_t> words() const { return words_; }
  std::span<std::uint64_t> words() { return words_; }

 private:
  std::uint32_t rows_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Column-major bit-plane mirror of a multi-bit weight image.
class BitPlaneMatrix {
 public:
  BitPlaneMatrix() = default;

  /// Shapes the mirror for a rows×cols image of `bits`-bit weights; all
  /// planes zero.
  void reset(std::uint32_t rows, std::uint32_t cols, std::uint32_t bits);

  std::uint32_t rows() const { return rows_; }
  std::uint32_t cols() const { return cols_; }
  std::uint32_t bits() const { return bits_; }
  /// Packed words per bit-plane (= packed_words(rows)).
  std::uint32_t words() const { return words_; }

  /// Writes every bit of weight (row, col). `value` must fit `bits`.
  void set_weight(std::uint32_t row, std::uint32_t col, std::uint8_t value);

  /// The `bits` contiguous planes of one column (bits()·words() words,
  /// LSB plane first).
  std::span<const std::uint64_t> column_planes(std::uint32_t col) const {
    CIM_ASSERT(col < cols_);
    const std::size_t stride = static_cast<std::size_t>(bits_) * words_;
    return {planes_.data() + col * stride, stride};
  }

  /// Bit-sliced column MAC: Σ_b popcount(input & plane_b) << b. Pure
  /// compute — the calling storage charges the hardware counters.
  std::uint64_t mac(std::uint32_t col,
                    std::span<const std::uint64_t> input) const;

  /// Per-plane product sums of one column (out has bits() entries) — the
  /// packed counterpart of the sparse kernel's plane_sums, feeding
  /// AdderTree::shift_and_add_sparse on the bit-level backend.
  void plane_sums(std::uint32_t col, std::span<const std::uint64_t> input,
                  std::span<std::uint32_t> out) const;

 private:
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::uint32_t bits_ = 0;
  std::uint32_t words_ = 0;
  std::vector<std::uint64_t> planes_;
};

}  // namespace cim::hw
