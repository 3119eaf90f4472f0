// Noisy weight storage backends.
//
// Both backends store a golden 8-bit weight image and expose the same
// semantics: a write-back restores the golden bits, then the pseudo-read
// error pattern of the current schedule phase corrupts up to `noisy_lsbs`
// low-order bit-cells toward each cell's preferred value (sticky until the
// next write-back). Randomness is counter-hashed from (model seed, global
// cell id, epoch), so the two backends produce bit-identical error
// patterns — a property the test suite checks.
//
//   * FastStorage    — materialises the corrupted byte per weight at
//                      write-back; MACs are plain integer dot products.
//                      Used for large instances. A write-back settles its
//                      cells through one noise::PhaseSettler table in
//                      fixed 16 384-weight chunks on the shared pool
//                      (windows below one chunk refresh inline), so the
//                      result is independent of the worker count.
//   * BitLevelStorage— explicit per-bit 14T cells, NOR multiplies and an
//                      AdderTree reduction per MAC; optionally flips cells
//                      on first access instead of at write-back
//                      (kFlipOnAccess), which is the more faithful
//                      temporal behaviour of pseudo-read.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cim/adder_tree.hpp"
#include "noise/schedule.hpp"
#include "noise/sram_model.hpp"
#include "util/units.hpp"

namespace cim::hw {

using util::ColIndex;
using util::RowIndex;

/// Counters shared by all storage backends.
struct StorageCounters {
  std::uint64_t macs = 0;              ///< column MAC operations
  std::uint64_t mac_bit_reads = 0;     ///< weight bit-cells read by MACs
  std::uint64_t writeback_events = 0;  ///< write-back operations
  std::uint64_t writeback_bits = 0;    ///< bit-cells written back
  std::uint64_t pseudo_read_flips = 0; ///< bit-cells corrupted by noise

  StorageCounters& operator+=(const StorageCounters& other);
  bool operator==(const StorageCounters&) const = default;
};

class WeightStorage {
 public:
  virtual ~WeightStorage() = default;

  virtual std::uint32_t rows() const = 0;
  virtual std::uint32_t cols() const = 0;
  virtual std::uint32_t weight_bits() const = 0;

  /// Installs the golden weight image (row-major rows×cols) and performs an
  /// initial noise-free write.
  virtual void write(std::span<const std::uint8_t> golden) = 0;

  /// Restores golden bits, then applies the phase's pseudo-read corruption.
  virtual void write_back(const noise::SchedulePhase& phase) = 0;

  /// Column MAC: Σ_r input[r] · weight[r][col] over the current (possibly
  /// corrupted) weights. input has rows() entries of 0/1. The column is a
  /// tagged index (util::ColIndex) so a row count can't be passed silently.
  virtual std::int64_t mac(ColIndex col,
                           std::span<const std::uint8_t> input) = 0;

  /// Sparse column MAC: the same operation with the input given as the
  /// list of set rows (distinct, each < rows()) instead of a dense 0/1
  /// vector — the annealer's swap inputs carry exactly p + 2 set bits.
  ///
  /// Equivalence invariant: for any input vector and its set-row list,
  /// mac() and mac_sparse() return the same value, leave the storage in
  /// the same state (including lazy pseudo-read corruption, which touches
  /// every cell of the addressed column on real hardware) and charge the
  /// same StorageCounters. The counters model hardware row *reads*, not
  /// simulator work, so `mac_bit_reads` still advances by rows()·bits.
  virtual std::int64_t mac_sparse(
      ColIndex col, std::span<const std::uint32_t> active_rows) = 0;

  /// Charges the hardware cost of re-issuing a MAC whose value the caller
  /// already holds (the annealer's partial-sum memo). The counters model
  /// hardware row reads, so a memoized repeat still pays the full
  /// rows()·bits read like every mac() variant; the host-side reduction is
  /// what the memo skips. Sound only for a (column, input) pair already
  /// MAC'd since the last write_back — by then any lazy pseudo-read
  /// corruption of the column has settled (touched cells never re-draw),
  /// so the repeat MAC would have been a pure function returning the
  /// memoized value and flipping nothing.
  void charge_repeat_mac() {
    ++counters_.macs;
    counters_.mac_bit_reads +=
        static_cast<std::uint64_t>(rows()) * weight_bits();
  }

  /// Row accumulate: acc[c] += sign · weight[row][c] for every column c
  /// (sign = ±1, acc has cols() entries). Host-side bookkeeping, not a
  /// modelled access, so it charges nothing: the Ising annealers keep
  /// exact copies of column MACs with it (DESIGN.md §16) while charging
  /// the MACs the hardware still performs through charge_repeat_mac().
  /// Valid only where weights are pure between write-backs; only the fast
  /// backend implements it, every other backend throws ConfigError.
  virtual void accumulate_row(RowIndex row, int sign,
                              std::span<std::int64_t> acc) const;

  /// Current (possibly corrupted) weight value — for tests and debugging.
  virtual std::uint8_t weight(RowIndex row, ColIndex col) const = 0;

  const StorageCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

 protected:
  StorageCounters counters_;
};

enum class PseudoReadPolicy {
  kSettleAtWriteBack,  ///< corruption applied in full at write-back
  kFlipOnAccess,       ///< cells flip on their first noisy access
};

/// Creates a fast (byte-materialised) backend.
/// `cell_base` must give every storage a disjoint global cell-id range of
/// rows*cols*weight_bits ids.
std::unique_ptr<WeightStorage> make_fast_storage(
    std::uint32_t rows, std::uint32_t cols,
    const noise::SramCellModel* model, std::uint64_t cell_base,
    std::uint32_t weight_bits = 8);

/// Creates the bit-level 14T-cell backend.
std::unique_ptr<WeightStorage> make_bit_level_storage(
    std::uint32_t rows, std::uint32_t cols,
    const noise::SramCellModel* model, std::uint64_t cell_base,
    std::uint32_t weight_bits = 8,
    PseudoReadPolicy policy = PseudoReadPolicy::kSettleAtWriteBack);

}  // namespace cim::hw
