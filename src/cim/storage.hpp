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
//   * FastStorage    — materialises the corrupted byte per weight;
//                      MACs are plain integer dot products. Used for
//                      large instances. write() copies the image and
//                      applies the hard faults. Every write-back settles
//                      through StorageBatch (its own write_back() is a
//                      batch of one): a cell's ΔVth and preferred value
//                      are fixed, so one pooled pass draws them once and
//                      settles every noisy epoch of an anneal, the first
//                      into the plane the MACs read and the later ones
//                      into per-weight flip words, which each later
//                      write-back applies to the golden image (DESIGN.md
//                      §11). The pass (settle_range) is lane loops over
//                      blocks of 256 weights, one source compiled for the
//                      base ISA and for AVX-512, where GCC vectorises it
//                      at -O3 (not at -O2); CPUID picks the build once
//                      (settle_target). Without a noise model a
//                      write-back only charges the counters.
//   * BitLevelStorage— explicit per-bit 14T cells, NOR multiplies and an
//                      AdderTree reduction per MAC; its write-back settles
//                      cell by cell through SramCellModel::settled_value,
//                      the oracle the fast backend is tested against.
//
// Either way every noisy cell settles at write-back, so a MAC is a pure
// function of the weights between write-backs: it reads, never flips.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "cim/adder_tree.hpp"
#include "noise/schedule.hpp"
#include "noise/sram_model.hpp"
#include "util/function_ref.hpp"
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

/// Prints every counter by name, so a failed comparison says which one
/// differed.
std::ostream& operator<<(std::ostream& os, const StorageCounters& counters);

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
  /// mac() and mac_sparse() return the same value and charge the same
  /// StorageCounters; neither changes a weight. The counters model
  /// hardware row *reads*, not simulator work, so `mac_bit_reads` still
  /// advances by rows()·bits.
  virtual std::int64_t mac_sparse(
      ColIndex col, std::span<const std::uint32_t> active_rows) = 0;

  /// Charges the hardware cost of re-issuing `n` MACs whose values the
  /// caller already holds (the TSP annealer's swap ΔE cache, the Ising
  /// annealers' incremental fields). The counters model hardware row
  /// reads, so each repeat still pays the full rows()·bits read like every
  /// mac() variant; the host-side reduction is what the caller skips.
  /// Sound because MACs are pure between write-backs: each repeat would
  /// return the held value and flip nothing. Non-virtual: it runs on swap
  /// ΔE-cache hits and twice per Ising field read.
  void charge_repeat_macs(std::uint64_t n) {
    counters_.macs += n;
    counters_.mac_bit_reads += n * mac_bits_;
  }

  /// The settled weights of `row` (cols() entries), valid until the next
  /// write(), write_back() or batch call. Host-side bookkeeping, not a
  /// modelled access, so it charges nothing: the Ising annealers keep
  /// exact copies of column MACs from these rows (DESIGN.md §16) while
  /// charging the MACs the hardware still performs through
  /// charge_repeat_macs(). Only the fast backend keeps a byte plane to
  /// read; every other backend throws ConfigError.
  virtual std::span<const std::uint8_t> settled_row(RowIndex row) const;

  /// Current (possibly corrupted) weight value — for tests and debugging.
  virtual std::uint8_t weight(RowIndex row, ColIndex col) const = 0;

  const StorageCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

 protected:
  /// `mac_bits` is rows() · weight_bits(): the bit-cells one MAC reads.
  explicit WeightStorage(std::uint64_t mac_bits) : mac_bits_(mac_bits) {}

  StorageCounters counters_;

 private:
  std::uint64_t mac_bits_;
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
    std::uint32_t weight_bits = 8);

/// The builds of the write-back settle pass: one source, compiled for
/// the base ISA and for AVX-512, where GCC vectorises its lane loops
/// (DESIGN.md §11).
enum class SettleTarget { kBase, kAvx512 };

/// The build this CPU runs: kAvx512 iff the library was built by GCC for
/// x86-64 and CPUID reports AVX-512 F, DQ, VL, BW and VPOPCNTDQ. Read
/// once, on the first call.
SettleTarget settle_target();

/// "base" or "avx512".
const char* to_string(SettleTarget target);

/// One settle pass over weights [begin, end) of a noisy fast storage
/// through consecutive noisy epochs (noise/sram_model.hpp, "Batched
/// draws"). Epoch e (settlers[e], lsbs[e] noisy LSBs, not growing, the
/// first at least 1; at most 33 epochs) flips bit b of a weight into bit
/// shifts[e] + b of its accumulator. The accumulator's low byte (epoch 0)
/// XOR the golden byte goes to `current`; with more than one epoch its
/// bits 8 up go to `halves` 16-bit flip-word halves per weight at
/// `flips`. epoch_flips[e] gains the epoch's flip count. Disjoint ranges
/// are independent.
struct SettleRange {
  std::uint64_t seed = 0;       ///< the cell model's
  std::uint64_t cell_base = 0;  ///< cell id of weight 0's bit 0
  std::uint32_t bits = 8;       ///< weight bits, cell ids per weight
  std::span<const noise::PhaseSettler> settlers;
  std::span<const unsigned> lsbs;
  std::span<const unsigned> shifts;
  const std::uint8_t* golden = nullptr;
  std::uint8_t* current = nullptr;
  std::uint16_t* flips = nullptr;
  unsigned halves = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t* epoch_flips = nullptr;
};

/// Settles `range` through the `target` build; kAvx512 needs
/// settle_target() == kAvx512 (else ConfigError). Both builds give the
/// same bytes, flip words and counts.
void settle_range(SettleTarget target, const SettleRange& range);

/// Writes or writes back a fixed set of storages as one pooled batch —
/// the one place storage work runs on host threads (DESIGN.md §11). The
/// constructor lays the storages end to end in one weight range and plans
/// tasks of kGrain weights over it, once: a fast storage splits at any
/// weight, so a task may cover the tail of one storage and the head of the
/// next, while any other backend (the bit-level oracle) is one indivisible
/// piece running its own write()/write_back(). Each weight is written by
/// exactly one task and every counter is charged on the caller, a
/// storage's pseudo-read flips as the integer sum over its pieces, so
/// weights and StorageCounters equal those of per-storage calls on any
/// pool width. A batch builds one PhaseSettler per cell model and noisy
/// epoch, not one per storage. A batch of one task runs inline on the
/// caller. write_back() and run_epochs() throw InvariantError ("write_back
/// before write") before any pass reads a storage that was never written.
///
/// The storages must outlive the batch, and nothing else may touch them
/// while a batch call runs, bar the MACs of run_epochs()' epoch body.
class StorageBatch {
 public:
  /// Weights per pooled task, from a 1 024 / 4 096 / 16 384 cimbench
  /// sweep: the three read alike within their spread on ising-mix and
  /// tsp-paper, while 16 384 left tsp-p8's window programming on too few
  /// tasks (setup 45 vs 29 ms).
  static constexpr std::size_t kGrain = 4096;

  /// `target` is the settle pass's build: the CPU's by default; benches
  /// and tests pass kBase to run the base-ISA build on any CPU.
  explicit StorageBatch(const std::vector<WeightStorage*>& storages,
                        SettleTarget target = settle_target());

  /// Weights of all storages together: the size of write()'s image.
  std::size_t weights() const { return weights_; }
  /// Pooled tasks per call.
  std::size_t tasks() const { return task_end_.size(); }

  /// Installs every storage's golden image, as WeightStorage::write does.
  /// `images` holds the storages' row-major images back to back, in the
  /// order the batch was built with; it must have weights() entries. Every
  /// image is validated before any storage changes (ConfigError).
  void write(std::span<const std::uint8_t> images);

  /// WeightStorage::write_back(phase) on every storage: the pass over
  /// this one epoch, then its commit.
  void write_back(const noise::SchedulePhase& phase);

  /// Runs every epoch of `schedule`, with `epoch_base` added to each
  /// phase's epoch: settles its noisy epochs in one pooled pass, then
  /// commits each epoch's write-back and calls epoch(begin, end) on the
  /// caller for its iterations, whose MACs read the committed epoch.
  /// Weights and counters equal write_back()'s at every epoch start.
  void run_epochs(const noise::AnnealSchedule& schedule,
                  std::uint64_t epoch_base,
                  util::FunctionRef<void(std::size_t, std::size_t)> epoch);

 private:
  /// Weights [begin, end) of one storage, which sits at `offset` in the
  /// batch's image; `split` marks a fast storage, `settler` its model's
  /// index in models_ (kNoModel for none).
  struct Piece {
    WeightStorage* storage = nullptr;
    std::size_t offset = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::uint32_t settler = 0;
    bool split = false;
  };
  static constexpr std::uint32_t kNoModel = ~0U;

  /// Settles the leading epochs of `noisy` (consecutive noisy write-backs)
  /// that one flip word holds; records each piece's flips per epoch.
  void settle(std::span<const noise::SchedulePhase> noisy);
  /// Writes back `phase`, epoch e of the last settle() (past its epochs,
  /// the golden image once); a storage's first piece charges it.
  void commit(const noise::SchedulePhase& phase, std::size_t e);

  std::vector<Piece> pieces_;
  /// Task t runs pieces [task_end_[t − 1], task_end_[t]).
  std::vector<std::size_t> task_end_;
  /// The distinct cell models of the fast storages.
  std::vector<const noise::SramCellModel*> models_;
  /// The last settle()'s epochs: each one's noisy LSBs (at most 8) and
  /// accumulator shift (FastStorage::settle_epochs); model m's settler and
  /// piece i's flips in epoch e at [m or i · epochs + e].
  std::vector<unsigned> lsbs_;
  std::vector<unsigned> shifts_;
  std::vector<noise::PhaseSettler> settlers_;
  std::vector<std::uint64_t> epoch_flips_;
  /// run_epochs()' write-back of each epoch, kept to reuse its capacity.
  std::vector<noise::SchedulePhase> phases_;
  std::size_t weights_ = 0;
  SettleTarget target_;
};

}  // namespace cim::hw
