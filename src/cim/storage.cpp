#include "cim/storage.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <utility>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cim::hw {

StorageCounters& StorageCounters::operator+=(const StorageCounters& other) {
  macs += other.macs;
  mac_bit_reads += other.mac_bit_reads;
  writeback_events += other.writeback_events;
  writeback_bits += other.writeback_bits;
  pseudo_read_flips += other.pseudo_read_flips;
  return *this;
}

std::ostream& operator<<(std::ostream& os, const StorageCounters& counters) {
  return os << "{macs=" << counters.macs
            << ", mac_bit_reads=" << counters.mac_bit_reads
            << ", writeback_events=" << counters.writeback_events
            << ", writeback_bits=" << counters.writeback_bits
            << ", pseudo_read_flips=" << counters.pseudo_read_flips << "}";
}

// Under kFlipOnAccess the first MAC of a column still changes its cells,
// so a row read between write-backs is not pure; the bit-level backend
// serves only the oracle tests, so it refuses the read outright.
void WeightStorage::accumulate_row(RowIndex /*row*/, int /*sign*/,
                                   std::span<std::int64_t> /*acc*/) const {
  throw ConfigError(
      "accumulate_row needs the fast backend (weights that settle only at "
      "write-back)");
}

namespace {

/// Runs task(t) for every t < count: inline for a single task, so a
/// batch that small never creates the shared pool, else as one pool batch.
/// Callers pass a lambda of two references, which std::function holds
/// without a heap allocation (GCC's -fanalyzer misreads a heap-held
/// functor here as leaked).
void run_tasks(std::size_t count,
               const std::function<void(std::size_t)>& task) {
  if (count == 1) {
    task(0);
  } else if (count > 1) {
    util::ThreadPool::shared().run(count, task);
  }
}

/// Weight values must fit the configured precision.
void validate_image(std::span<const std::uint8_t> golden,
                    std::uint32_t weight_bits) {
  const std::uint32_t limit = 1U << weight_bits;
  for (const std::uint8_t w : golden) {
    CIM_REQUIRE(w < limit, "weight value exceeds configured precision");
  }
}

class StorageBase : public WeightStorage {
 public:
  StorageBase(std::uint32_t rows, std::uint32_t cols,
              const noise::SramCellModel* model, std::uint64_t cell_base,
              std::uint32_t weight_bits)
      : rows_(rows),
        cols_(cols),
        bits_(weight_bits),
        model_(model),
        cell_base_(cell_base) {
    CIM_REQUIRE(rows_ >= 1 && cols_ >= 1, "storage needs a non-empty grid");
    CIM_REQUIRE(bits_ >= 1 && bits_ <= 8, "weight precision must be 1..8");
  }

  std::uint32_t rows() const override { return rows_; }
  std::uint32_t cols() const override { return cols_; }
  std::uint32_t weight_bits() const override { return bits_; }

 protected:
  std::size_t weight_count() const {
    return static_cast<std::size_t>(rows_) * cols_;
  }
  std::size_t index(std::uint32_t row, std::uint32_t col) const {
    CIM_ASSERT(row < rows_ && col < cols_);
    return static_cast<std::size_t>(row) * cols_ + col;
  }
  std::uint64_t cell_id(std::size_t weight_index, std::uint32_t bit) const {
    return cell_base_ + static_cast<std::uint64_t>(weight_index) * bits_ +
           bit;
  }

  std::uint32_t rows_;
  std::uint32_t cols_;
  std::uint32_t bits_;
  const noise::SramCellModel* model_;
  std::uint64_t cell_base_;
};

class FastStorage final : public StorageBase {
 public:
  /// Weights per settle() block: 2 048 candidate cells at most, so its
  /// two scratch lists stay on the stack (6 KiB).
  static constexpr std::size_t kSettleBlock = 256;

  FastStorage(std::uint32_t rows, std::uint32_t cols,
              const noise::SramCellModel* model, std::uint64_t cell_base,
              std::uint32_t weight_bits)
      : StorageBase(rows, cols, model, cell_base, weight_bits),
        // Allocate the planes here, so that write() allocates nothing: a
        // window build creates every storage on one thread and then
        // writes them in a pooled StorageBatch, where allocations would
        // contend on the heap.
        current_(std::make_unique_for_overwrite<std::uint8_t[]>(
            weight_count())) {
    if (model_) {
      golden_ = std::make_unique_for_overwrite<std::uint8_t[]>(weight_count());
      anti_ = std::make_unique_for_overwrite<std::uint8_t[]>(weight_count());
    }
  }

  const noise::SramCellModel* model() const { return model_; }

  void write(std::span<const std::uint8_t> golden) override {
    CIM_REQUIRE(golden.size() == weight_count(),
                "weight image size mismatch");
    validate_image(golden, bits_);
    write_range(golden, 0, weight_count());
  }

  void write_back(const noise::SchedulePhase& phase) override {
    charge_write_back();
    if (!model_) return;  // no MAC changes current_
    std::optional<noise::PhaseSettler> settler;
    if (phase.noisy_lsbs > 0) settler.emplace(*model_, phase.epoch, phase.vdd);
    reserve_spare();
    add_flips(settle(settler ? &*settler : nullptr, phase.noisy_lsbs, 0,
                     weight_count()));
    swap_planes();
  }

  // Installs weights [begin, end) of the validated full image `golden`:
  // applies the hard manufacturing faults — a stuck cell overrides
  // every write at any supply voltage, and holds its preferred value — and
  // sets anti_[w] bit b iff the stored bit differs from the cell's
  // preferred value. The stuck-adjusted image and its mask are built once
  // per write, not once per write-back. Ranges are independent, so
  // StorageBatch runs disjoint ones concurrently.
  // NOLINT(cim-counter-charge) — a golden-image install, not an access.
  void write_range(std::span<const std::uint8_t> golden, std::size_t begin,
                   std::size_t end) {
    if (model_) {
      const std::uint64_t seed = model_->seed();
      const double stuck_rate = model_->params().stuck_cell_rate;
      for (std::size_t w = begin; w < end; ++w) {
        std::uint8_t value = golden[w];
        std::uint8_t anti = 0;
        for (std::uint32_t b = 0; b < bits_; ++b) {
          const std::uint64_t id = cell_id(w, b);
          const bool preferred = noise::cell_hash::preferred_bit(seed, id);
          if (noise::cell_hash::is_stuck(seed, id, stuck_rate)) {
            value = static_cast<std::uint8_t>(
                (value & ~(1U << b)) |
                (static_cast<unsigned>(preferred) << b));
          } else if (((value >> b) & 1U) !=
                     static_cast<unsigned>(preferred)) {
            anti = static_cast<std::uint8_t>(anti | (1U << b));
          }
        }
        golden_[w] = value;
        anti_[w] = anti;
        current_[w] = value;
      }
    } else {
      std::copy(golden.begin() + static_cast<std::ptrdiff_t>(begin),
                golden.begin() + static_cast<std::ptrdiff_t>(end),
                current_.get() + begin);
    }
    // One range per write starts the storage.
    if (begin == 0) written_ = true;
  }

  // The write-back's counters, bar the flips the settles return.
  void charge_write_back() {
    CIM_ASSERT_MSG(written_, "write_back before write");
    ++counters_.writeback_events;
    counters_.writeback_bits += weight_count() * bits_;
  }

  void add_flips(std::uint64_t flips) {
    counters_.pseudo_read_flips += flips;
  }

  // Allocates the plane settle() writes, on the first write-back rather
  // than with the storage: by then the caller's write() image is freed
  // and the plane can reuse its memory instead of raising the peak (by
  // about 3% on cimbench's tsp-p8). Never called from a pooled task.
  void reserve_spare() {
    if (!spare_) {
      spare_ = std::make_unique_for_overwrite<std::uint8_t[]>(weight_count());
    }
  }

  // Makes the settled spare plane the one the MACs read.
  void swap_planes() { std::swap(current_, spare_); }

  // Settles weights [begin, end) of the spare plane, which no MAC reads:
  // restores the stuck-adjusted golden image, then — given a settler —
  // settles the anti-preferred cells among the phase's `noisy_lsbs` low
  // bits; returns the pseudo-read flips. A cell already at its preferred
  // value is stable, so only the mask's set bits are candidates. Each
  // block of kSettleBlock weights takes two passes. The first walks the
  // mask and draws every candidate's ΔVth threshold, flips the cells whose
  // table entry is 0 (no read margin) as it writes each weight, and lists
  // only the cells left open (entries 1..64) with their entry; the second
  // draws the disturbance for the open cells alone. These are the draws
  // and the rule of PhaseSettler::flips_anti, without its per-cell branch
  // on the entry. Ranges are independent, so StorageBatch runs disjoint
  // ones concurrently; the caller charges the counters.
  // NOLINT(cim-counter-charge)
  std::uint64_t settle(const noise::PhaseSettler* settler,
                       std::uint32_t noisy_lsbs, std::size_t begin,
                       std::size_t end) {
    std::uint8_t* const out = spare_.get();
    if (settler == nullptr) {
      std::copy(golden_.get() + begin, golden_.get() + end, out + begin);
      return 0;
    }
    const std::uint32_t noisy = std::min(noisy_lsbs, bits_);
    const auto noisy_mask = static_cast<unsigned>((1U << noisy) - 1U);
    // An open cell is (w − block) · 8 + b.
    std::array<std::uint16_t, kSettleBlock * 8> open;
    std::array<std::uint8_t, kSettleBlock * 8> from;
    std::uint64_t flips = 0;
    for (std::size_t block = begin; block < end; block += kSettleBlock) {
      const std::size_t stop = std::min(end, block + kSettleBlock);
      // Stuck cells hold their preferred value, so the mask never names
      // one: PhaseSettler::settle()'s is_stuck branch cannot apply here.
      std::size_t m = 0;
      for (std::size_t w = block; w < stop; ++w) {
        unsigned value = golden_[w];
        for (unsigned bits = anti_[w] & noisy_mask; bits != 0;
             bits &= bits - 1) {
          const auto b = static_cast<unsigned>(std::countr_zero(bits));
          const unsigned entry = settler->threshold(cell_id(w, b));
          const unsigned hit = entry == 0 ? 1U : 0U;
          value ^= hit << b;
          flips += hit;
          open[m] = static_cast<std::uint16_t>((w - block) * 8 + b);
          from[m] = static_cast<std::uint8_t>(entry);
          m += entry - 1U < 64U ? 1U : 0U;  // 1..64: the draw decides
        }
        out[w] = static_cast<std::uint8_t>(value);
      }
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t w = block + (open[j] >> 3U);
        const unsigned b = open[j] & 7U;
        const unsigned hit =
            settler->disturbed(cell_id(w, b), from[j]) ? 1U : 0U;
        out[w] = static_cast<std::uint8_t>(out[w] ^ (hit << b));
        flips += hit;
      }
    }
    return flips;
  }

  std::int64_t mac(ColIndex col_idx,
                   std::span<const std::uint8_t> input) override {
    const std::uint32_t col = col_idx.get();
    CIM_ASSERT(col < cols_);
    CIM_ASSERT(input.size() == rows_);
    std::int64_t acc = 0;
    for (std::uint32_t r = 0; r < rows_; ++r) {
      if (input[r]) acc += current_[index(r, col)];
    }
    ++counters_.macs;
    counters_.mac_bit_reads += static_cast<std::uint64_t>(rows_) * bits_;
    return acc;
  }

  std::int64_t mac_sparse(
      ColIndex col_idx,
      std::span<const std::uint32_t> active_rows) override {
    const std::uint32_t col = col_idx.get();
    CIM_ASSERT(col < cols_);
    std::int64_t acc = 0;
    for (const std::uint32_t r : active_rows) {
      acc += current_[index(r, col)];
    }
    ++counters_.macs;
    counters_.mac_bit_reads += static_cast<std::uint64_t>(rows_) * bits_;
    return acc;
  }

  // Host-side field bookkeeping over the settled image, not a modelled
  // wordline access: the caller charges the column MACs it stands in for
  // via charge_repeat_macs(). NOLINT(cim-counter-charge)
  void accumulate_row(RowIndex row_idx, int sign,
                      std::span<std::int64_t> acc) const override {
    const std::uint32_t row = row_idx.get();
    CIM_ASSERT(row < rows_);
    CIM_ASSERT(sign == 1 || sign == -1);
    CIM_ASSERT(acc.size() == cols_);
    const std::uint8_t* weights = &current_[index(row, 0)];
    if (sign > 0) {
      for (std::uint32_t c = 0; c < cols_; ++c) acc[c] += weights[c];
    } else {
      for (std::uint32_t c = 0; c < cols_; ++c) acc[c] -= weights[c];
    }
  }

  // Test/debug observability peek, not a modelled wordline access — the
  // hardware never reads single weights outside a MAC.
  // NOLINT(cim-counter-charge)
  std::uint8_t weight(RowIndex row, ColIndex col) const override {
    return current_[index(row.get(), col.get())];
  }

 private:
  /// The settled image the MACs read.
  std::unique_ptr<std::uint8_t[]> current_;
  /// With a noise model only: the written image with the hard faults
  /// applied; bit b of anti_[w], set iff cell (w, b) is not stuck and
  /// holds its anti-preferred value there; and, from the first
  /// write-back, the plane a write-back settles into before it swaps
  /// with current_.
  std::unique_ptr<std::uint8_t[]> golden_;
  std::unique_ptr<std::uint8_t[]> anti_;
  std::unique_ptr<std::uint8_t[]> spare_;
  bool written_ = false;
};

class BitLevelStorage final : public StorageBase {
 public:
  BitLevelStorage(std::uint32_t rows, std::uint32_t cols,
                  const noise::SramCellModel* model, std::uint64_t cell_base,
                  std::uint32_t weight_bits, PseudoReadPolicy policy)
      : StorageBase(rows, cols, model, cell_base, weight_bits),
        policy_(policy),
        tree_(rows) {
    const std::size_t n_cells = weight_count() * bits_;
    stored_.assign(n_cells, 0);
    golden_bits_.assign(n_cells, 0);
    touched_.assign(n_cells, 0);
  }

  // Initial golden-image load happens before the annealing run starts;
  // the paper's write-energy accounting begins at the first write_back.
  // NOLINT(cim-counter-charge)
  void write(std::span<const std::uint8_t> golden) override {
    CIM_REQUIRE(golden.size() == weight_count(),
                "weight image size mismatch");
    validate_image(golden, bits_);
    for (std::size_t w = 0; w < weight_count(); ++w) {
      for (std::uint32_t b = 0; b < bits_; ++b) {
        const std::uint8_t bit = (golden[w] >> b) & 1U;
        golden_bits_[w * bits_ + b] = bit;
        stored_[w * bits_ + b] = bit;
      }
    }
    std::fill(touched_.begin(), touched_.end(), 0);
    apply_stuck_faults();
  }

  void write_back(const noise::SchedulePhase& phase) override {
    CIM_ASSERT_MSG(!stored_.empty(), "write_back before write");
    stored_ = golden_bits_;
    std::fill(touched_.begin(), touched_.end(), 0);
    phase_ = phase;
    ++counters_.writeback_events;
    counters_.writeback_bits += stored_.size();
    apply_stuck_faults();
    if (!model_ || phase.noisy_lsbs == 0) return;
    if (policy_ == PseudoReadPolicy::kSettleAtWriteBack) {
      const std::uint32_t noisy = std::min(phase.noisy_lsbs, bits_);
      for (std::size_t w = 0; w < weight_count(); ++w) {
        for (std::uint32_t b = 0; b < noisy; ++b) {
          corrupt_cell(w, b);
        }
      }
    }
  }

  std::int64_t mac(ColIndex col_idx,
                   std::span<const std::uint8_t> input) override {
    const std::uint32_t col = col_idx.get();
    CIM_ASSERT(col < cols_);
    CIM_ASSERT(input.size() == rows_);
    const bool lazy_noise = model_ &&
                            policy_ == PseudoReadPolicy::kFlipOnAccess &&
                            phase_.noisy_lsbs > 0;
    const std::uint32_t noisy =
        lazy_noise ? std::min(phase_.noisy_lsbs, bits_) : 0;

    // Assemble bit-plane NOR products; every access is a pseudo-read of the
    // addressed cells.
    planes_.assign(static_cast<std::size_t>(bits_) * rows_, 0);
    for (std::uint32_t r = 0; r < rows_; ++r) {
      const std::size_t w = index(r, col);
      for (std::uint32_t b = 0; b < bits_; ++b) {
        const std::size_t cell = w * bits_ + b;
        if (b < noisy && !touched_[cell]) {
          corrupt_cell(w, b);
          touched_[cell] = 1;
        }
        // 14T cell multiply: input NOR-combined with the stored bit acts
        // as a 1-bit AND of input and weight-bit (active-low NOR logic).
        planes_[static_cast<std::size_t>(b) * rows_ + r] =
            static_cast<std::uint8_t>(input[r] & stored_[cell]);
      }
    }
    const std::uint64_t value = tree_.shift_and_add(planes_, bits_);
    ++counters_.macs;
    counters_.mac_bit_reads += static_cast<std::uint64_t>(rows_) * bits_;
    return static_cast<std::int64_t>(value);
  }

  std::int64_t mac_sparse(
      ColIndex col_idx,
      std::span<const std::uint32_t> active_rows) override {
    const std::uint32_t col = col_idx.get();
    CIM_ASSERT(col < cols_);
    const bool lazy_noise = model_ &&
                            policy_ == PseudoReadPolicy::kFlipOnAccess &&
                            phase_.noisy_lsbs > 0;
    if (lazy_noise) {
      // Every MAC pseudo-reads the whole addressed column: cells of
      // inactive rows corrupt too, in the same row-major order as the
      // dense path.
      const std::uint32_t noisy = std::min(phase_.noisy_lsbs, bits_);
      for (std::uint32_t r = 0; r < rows_; ++r) {
        const std::size_t w = index(r, col);
        for (std::uint32_t b = 0; b < noisy; ++b) {
          const std::size_t cell = w * bits_ + b;
          if (!touched_[cell]) {
            corrupt_cell(w, b);
            touched_[cell] = 1;
          }
        }
      }
    }
    // Per-plane product counts over the set rows only; the tree model
    // still charges the full-fan-in reduction (inactive rows feed zero
    // products, not zero hardware).
    plane_sums_.assign(bits_, 0);
    for (const std::uint32_t r : active_rows) {
      CIM_ASSERT(r < rows_);
      const std::size_t w = index(r, col);
      for (std::uint32_t b = 0; b < bits_; ++b) {
        plane_sums_[b] += stored_[w * bits_ + b];
      }
    }
    const std::uint64_t value = tree_.shift_and_add_sparse(plane_sums_);
    ++counters_.macs;
    counters_.mac_bit_reads += static_cast<std::uint64_t>(rows_) * bits_;
    return static_cast<std::int64_t>(value);
  }

  // Test/debug observability peek, not a modelled wordline access.
  // NOLINT(cim-counter-charge)
  std::uint8_t weight(RowIndex row, ColIndex col) const override {
    const std::size_t w = index(row.get(), col.get());
    std::uint8_t value = 0;
    for (std::uint32_t b = 0; b < bits_; ++b) {
      value = static_cast<std::uint8_t>(value | (stored_[w * bits_ + b] << b));
    }
    return value;
  }

  const AdderTree& adder_tree() const { return tree_; }

 private:
  // Charged by the callers (write/write_back own the writeback counters).
  // NOLINT(cim-counter-charge)
  void apply_stuck_faults() {
    if (!model_ || model_->params().stuck_cell_rate <= 0.0) return;
    for (std::size_t w = 0; w < weight_count(); ++w) {
      for (std::uint32_t b = 0; b < bits_; ++b) {
        const std::uint64_t id = cell_id(w, b);
        if (!model_->is_stuck(id)) continue;
        stored_[w * bits_ + b] =
            model_->traits(id).preferred_bit ? 1 : 0;
      }
    }
  }

  void corrupt_cell(std::size_t w, std::uint32_t b) {
    const std::size_t cell = w * bits_ + b;
    const bool bit = stored_[cell] != 0;
    const bool settled =
        model_->settled_value(cell_id(w, b), phase_.epoch, phase_.vdd, bit);
    if (settled != bit) {
      stored_[cell] = settled ? 1 : 0;
      ++counters_.pseudo_read_flips;
    }
  }

  PseudoReadPolicy policy_;
  AdderTree tree_;
  noise::SchedulePhase phase_;
  std::vector<std::uint8_t> stored_;
  std::vector<std::uint8_t> golden_bits_;
  std::vector<std::uint8_t> touched_;
  std::vector<std::uint8_t> planes_;
  std::vector<std::uint32_t> plane_sums_;
};

}  // namespace

StorageBatch::StorageBatch(const std::vector<WeightStorage*>& storages) {
  std::size_t filled = 0;  // weights in the task being planned
  const auto close_task = [&] {
    task_end_.push_back(pieces_.size());
    filled = 0;
  };
  for (WeightStorage* storage : storages) {
    CIM_REQUIRE(storage != nullptr, "storage batch holds a null storage");
    const std::size_t n =
        static_cast<std::size_t>(storage->rows()) * storage->cols();
    auto* fast = dynamic_cast<FastStorage*>(storage);
    if (fast == nullptr) {
      pieces_.push_back({storage, weights_, 0, n, kNoModel, false});
      filled += n;
      if (filled >= kGrain) close_task();
    } else {
      std::uint32_t settler = kNoModel;
      if (fast->model() != nullptr) {
        const auto known =
            std::find(models_.begin(), models_.end(), fast->model());
        settler = static_cast<std::uint32_t>(known - models_.begin());
        if (known == models_.end()) models_.push_back(fast->model());
      }
      for (std::size_t begin = 0; begin < n;) {
        const std::size_t end = std::min(n, begin + (kGrain - filled));
        pieces_.push_back({storage, weights_, begin, end, settler, true});
        filled += end - begin;
        begin = end;
        if (filled == kGrain) close_task();
      }
    }
    weights_ += n;
  }
  if (filled > 0) close_task();
  piece_flips_.assign(pieces_.size(), 0);
  settlers_.reserve(models_.size());
}

void StorageBatch::write(std::span<const std::uint8_t> images) {
  CIM_REQUIRE(images.size() == weights_, "batch image size mismatch");
  // Validated here, on the caller, so that no task throws.
  for (const Piece& piece : pieces_) {
    if (piece.begin == 0) {
      validate_image(images.subspan(piece.offset,
                                    static_cast<std::size_t>(
                                        piece.storage->rows()) *
                                        piece.storage->cols()),
                     piece.storage->weight_bits());
    }
  }
  run_tasks(task_end_.size(), [this, &images](std::size_t t) {
    for (std::size_t i = t == 0 ? 0 : task_end_[t - 1]; i < task_end_[t];
         ++i) {
      const Piece& piece = pieces_[i];
      const std::span<const std::uint8_t> image = images.subspan(
          piece.offset, static_cast<std::size_t>(piece.storage->rows()) *
                            piece.storage->cols());
      if (piece.split) {
        static_cast<FastStorage*>(piece.storage)
            ->write_range(image, piece.begin, piece.end);
      } else {
        piece.storage->write(image);
      }
    }
  });
}

void StorageBatch::prepare(const noise::SchedulePhase& phase) {
  if (models_.empty()) return;
  for (const Piece& piece : pieces_) {
    if (piece.settler != kNoModel && piece.begin == 0) {
      static_cast<FastStorage*>(piece.storage)->reserve_spare();
    }
  }
  settlers_.clear();
  if (phase.noisy_lsbs > 0) {
    for (const noise::SramCellModel* model : models_) {
      settlers_.emplace_back(*model, phase.epoch, phase.vdd);
    }
  }
  run_tasks(task_end_.size(), [this, &phase](std::size_t t) {
    for (std::size_t i = t == 0 ? 0 : task_end_[t - 1]; i < task_end_[t];
         ++i) {
      const Piece& piece = pieces_[i];
      if (piece.settler == kNoModel) continue;
      piece_flips_[i] = static_cast<FastStorage*>(piece.storage)
                            ->settle(settlers_.empty()
                                         ? nullptr
                                         : &settlers_[piece.settler],
                                     phase.noisy_lsbs, piece.begin, piece.end);
    }
  });
}

void StorageBatch::commit(const noise::SchedulePhase& phase) {
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    const Piece& piece = pieces_[i];
    if (!piece.split) {
      piece.storage->write_back(phase);
      continue;
    }
    auto* fast = static_cast<FastStorage*>(piece.storage);
    // A storage's first piece charges its write-back and swaps its planes.
    if (piece.begin == 0) {
      fast->charge_write_back();
      if (piece.settler != kNoModel) fast->swap_planes();
    }
    fast->add_flips(piece_flips_[i]);
  }
}

void StorageBatch::write_back(const noise::SchedulePhase& phase) {
  prepare(phase);
  commit(phase);
}

void StorageBatch::run_epochs(
    const noise::AnnealSchedule& schedule, std::uint64_t epoch_base,
    const std::function<void(std::size_t, std::size_t)>& epoch) {
  const auto phase_at = [&](std::size_t iteration) {
    noise::SchedulePhase phase = schedule.at(iteration);
    phase.epoch += epoch_base;
    return phase;
  };
  const std::size_t iterations = schedule.total_iterations();
  // A one-task pass is too short to pay for a pool task.
  const bool beside = task_end_.size() > 1 && !models_.empty();
  struct {
    std::size_t begin = 0;
    std::size_t end = 0;
  } span;  // the epoch's iterations
  noise::SchedulePhase next;
  prepare(phase_at(0));
  for (; span.begin < iterations; span.begin = span.end) {
    span.end = std::min(span.begin + schedule.params().iterations_per_step,
                        iterations);
    // Commit before the next prepare starts: it settles into the plane
    // this swaps out.
    commit(phase_at(span.begin));
    if (span.end < iterations && beside) {
      next = phase_at(span.end);
      // Two references each, which std::function holds without a heap
      // allocation (GCC's -fanalyzer misreads a heap-held functor as
      // leaked).
      util::ThreadPool::shared().run_beside(
          [this, &next] { prepare(next); },
          [&epoch, &span] { epoch(span.begin, span.end); });
    } else {
      epoch(span.begin, span.end);
      if (span.end < iterations) prepare(phase_at(span.end));
    }
  }
}

std::unique_ptr<WeightStorage> make_fast_storage(
    std::uint32_t rows, std::uint32_t cols,
    const noise::SramCellModel* model, std::uint64_t cell_base,
    std::uint32_t weight_bits) {
  return std::make_unique<FastStorage>(rows, cols, model, cell_base,
                                       weight_bits);
}

std::unique_ptr<WeightStorage> make_bit_level_storage(
    std::uint32_t rows, std::uint32_t cols,
    const noise::SramCellModel* model, std::uint64_t cell_base,
    std::uint32_t weight_bits, PseudoReadPolicy policy) {
  return std::make_unique<BitLevelStorage>(rows, cols, model, cell_base,
                                           weight_bits, policy);
}

}  // namespace cim::hw
