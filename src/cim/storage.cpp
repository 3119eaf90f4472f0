#include "cim/storage.hpp"

#include <algorithm>
#include <bit>
#include <functional>

#include "util/error.hpp"
#include "util/parallel_for.hpp"

namespace cim::hw {

StorageCounters& StorageCounters::operator+=(const StorageCounters& other) {
  macs += other.macs;
  mac_bit_reads += other.mac_bit_reads;
  writeback_events += other.writeback_events;
  writeback_bits += other.writeback_bits;
  pseudo_read_flips += other.pseudo_read_flips;
  return *this;
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
  /// Weight values must fit the configured precision.
  void validate_range(std::span<const std::uint8_t> golden) const {
    const std::uint32_t limit = 1U << bits_;
    for (const std::uint8_t w : golden) {
      CIM_REQUIRE(w < limit, "weight value exceeds configured precision");
    }
  }

  std::uint32_t rows_;
  std::uint32_t cols_;
  std::uint32_t bits_;
  const noise::SramCellModel* model_;
  std::uint64_t cell_base_;
};

class FastStorage final : public StorageBase {
 public:
  using StorageBase::StorageBase;

  void write(std::span<const std::uint8_t> golden) override {
    CIM_REQUIRE(golden.size() == weight_count(),
                "weight image size mismatch");
    validate_range(golden);
    golden_.assign(golden.begin(), golden.end());
    if (model_) {
      // The hard faults and each cell's preferred value are fixed, so the
      // stuck-adjusted image and its anti-preferred mask are built once
      // per write, in the write-back's chunks, not once per write-back.
      anti_.resize(weight_count());
      util::parallel_for_chunks(
          weight_count(), kWriteBackGrain,
          [&](std::size_t begin, std::size_t end) {
            build_mask(begin, end);
          });
    }
    current_ = golden_;
  }

  void write_back(const noise::SchedulePhase& phase) override {
    CIM_ASSERT_MSG(!golden_.empty(), "write_back before write");
    ++counters_.writeback_events;
    counters_.writeback_bits += weight_count() * bits_;
    if (!model_ || phase.noisy_lsbs == 0) {
      current_ = golden_;
      return;
    }
    const std::uint32_t noisy = std::min(phase.noisy_lsbs, bits_);
    const auto noisy_mask = static_cast<std::uint8_t>((1U << noisy) - 1U);
    const noise::PhaseSettler settler(*model_, phase.epoch, phase.vdd);
    // Weights refresh independently, so fixed-grain chunks run on the
    // shared pool; the chunking depends only on the weight count, and the
    // flip counts fold in chunk order (DESIGN.md §11).
    counters_.pseudo_read_flips += util::parallel_reduce(
        weight_count(), kWriteBackGrain, std::uint64_t{0},
        [&](std::size_t begin, std::size_t end) {
          return refresh(begin, end, noisy_mask, settler);
        },
        std::plus<>{});
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
  /// Weights per write() mask-build and write-back chunk: small TSP
  /// windows run inline, the Max-Cut planes and large generic windows
  /// split across the pool.
  static constexpr std::size_t kWriteBackGrain = 16384;

  // Restores weights [begin, end) to the stuck-adjusted golden image,
  // then settles the anti-preferred cells among their noisy LSBs
  // (`noisy_mask`); returns the pseudo-read flips. A cell already at its
  // preferred value is stable, so only the mask's set bits are visited.
  // Charged by write_back, which owns the writeback counters.
  // NOLINT(cim-counter-charge)
  std::uint64_t refresh(std::size_t begin, std::size_t end,
                        std::uint8_t noisy_mask,
                        const noise::PhaseSettler& settler) {
    std::uint64_t flips = 0;
    for (std::size_t w = begin; w < end; ++w) {
      std::uint8_t value = golden_[w];
      // Stuck cells hold their preferred value, so the mask never names
      // one: settle()'s is_stuck branch cannot apply here.
      for (unsigned cells = anti_[w] & noisy_mask; cells != 0;
           cells &= cells - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(cells));
        if (settler.flips_anti(cell_id(w, b))) {
          value = static_cast<std::uint8_t>(value ^ (1U << b));
          ++flips;
        }
      }
      current_[w] = value;
    }
    return flips;
  }

  // Applies the hard manufacturing faults to golden_ on weights
  // [begin, end) — a stuck cell overrides every write at any supply
  // voltage, and holds its preferred value — and sets anti_[w] bit b iff
  // the stored bit differs from the cell's preferred value.
  void build_mask(std::size_t begin, std::size_t end) {
    const std::uint64_t seed = model_->seed();
    const double stuck_rate = model_->params().stuck_cell_rate;
    for (std::size_t w = begin; w < end; ++w) {
      std::uint8_t value = golden_[w];
      std::uint8_t anti = 0;
      for (std::uint32_t b = 0; b < bits_; ++b) {
        const std::uint64_t id = cell_id(w, b);
        const bool preferred = noise::cell_hash::preferred_bit(seed, id);
        if (noise::cell_hash::is_stuck(seed, id, stuck_rate)) {
          value = static_cast<std::uint8_t>(
              (value & ~(1U << b)) | (static_cast<unsigned>(preferred) << b));
        } else if (((value >> b) & 1U) != static_cast<unsigned>(preferred)) {
          anti = static_cast<std::uint8_t>(anti | (1U << b));
        }
      }
      golden_[w] = value;
      anti_[w] = anti;
    }
  }

  /// The written image with the hard faults applied.
  std::vector<std::uint8_t> golden_;
  /// Bit b of anti_[w] is set iff cell (w, b) is not stuck and holds its
  /// anti-preferred value in golden_; empty without a noise model.
  std::vector<std::uint8_t> anti_;
  std::vector<std::uint8_t> current_;
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
    validate_range(golden);
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
