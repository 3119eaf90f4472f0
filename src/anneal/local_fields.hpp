// Exact per-spin local fields for the Ising annealers (DESIGN.md §16).
//
// MaxCutAnnealer and GenericAnnealer evaluate a spin as
// field_v = 2·(MAC+ − MAC−)(σ+) − row_sum_v, one column MAC per sign
// plane. LocalFields keeps both terms for every spin in flat arrays —
// window w's column c sits at offset[w] + c — and keeps them exact
// incrementally instead of re-reducing columns:
//
//   * rebuild() recomputes row sums and MACs from σ+ in one row-major
//     pass over the settled planes (after every write-back);
//   * flip() adds ±(pos − neg) of the flipped spin's row to every MAC —
//     the whole row, because a pseudo-read can settle a non-edge weight
//     to a nonzero value, which the column MAC reads too.
//
// The hardware cost stays the paper's: every field() charges one column
// MAC per plane and every rebuild() one all-ones MAC per column per plane,
// through WeightStorage::charge_repeat_macs(). Requires weights that are
// pure between write-backs (WeightStorage::accumulate_row).
//
// Hit/miss accounting keeps the recompute memo's meaning: an evaluation
// is a hit when no flip and no rebuild happened since that spin's
// previous evaluation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cim/storage.hpp"

namespace cim::anneal {

class LocalFields {
 public:
  /// One pos/neg magnitude plane pair; all windows share the row count.
  struct Window {
    hw::WeightStorage* pos = nullptr;
    hw::WeightStorage* neg = nullptr;
  };

  explicit LocalFields(std::vector<Window> windows);

  /// Recomputes every row sum and MAC from σ+ (one 0/1 entry per row)
  /// and charges the all-ones row-sum MACs.
  void rebuild(std::span<const std::uint8_t> sigma_plus);

  /// field = 2·MAC − row_sum of column `col` in window `window`; charges
  /// one MAC per plane and counts a memo hit or miss.
  std::int64_t field(std::size_t window, std::uint32_t col);

  /// Spin `row` flipped: σ+_row changed by `delta` (+1 or −1).
  void flip(std::uint32_t row, int delta);

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

 private:
  std::span<std::int64_t> window_span(std::vector<std::int64_t>& values,
                                      std::size_t window);

  std::vector<Window> windows_;
  std::vector<std::size_t> offset_;  ///< first slot of each window
  std::vector<std::int64_t> mac_;
  std::vector<std::int64_t> row_sum_;
  // Accounting only: the generation advances on every flip and rebuild.
  std::vector<std::uint64_t> stamp_;  // 0 never matches (gens start at 1)
  std::uint64_t generation_ = 1;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace cim::anneal
