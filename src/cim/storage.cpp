#include "cim/storage.hpp"

#include <algorithm>
#include <array>
#include <memory>
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

// Only the fast backend keeps the byte plane a row read returns; the
// bit-level backend serves the oracle tests and refuses the read.
std::span<const std::uint8_t> WeightStorage::settled_row(
    RowIndex /*row*/) const {
  throw ConfigError("settled_row needs the fast backend");
}

namespace {

/// Runs task(t) for every t < count: inline for a single task, so a
/// batch that small never creates the shared pool, else as one pool batch.
void run_tasks(std::size_t count, util::FunctionRef<void(std::size_t)> task) {
  if (count == 1) {
    task(0);
  } else if (count > 1) {
    util::ThreadPool::shared().run(count, task);
  }
}

/// Most epochs one settle pass holds: the first, whose flips go to the
/// plane the MACs read, and the later ones, each with at least one of the
/// flip word's 32 bits.
constexpr std::size_t kMaxPassEpochs = 1 + 32;

/// Weight values must fit the configured precision.
void validate_image(std::span<const std::uint8_t> golden,
                    std::uint32_t weight_bits) {
  const std::uint32_t limit = 1U << weight_bits;
  for (const std::uint8_t w : golden) {
    CIM_REQUIRE(w < limit, "weight value exceeds configured precision");
  }
}

/// Weights per settle block: its five lane arrays stay on the stack
/// (10 KiB, beside the pass's 17 KiB of 64-bit flip_from tables).
constexpr std::size_t kSettleBlock = 256;

// The settle pass (noise/sram_model.hpp, "Batched draws") as lane loops
// over a block of cells, one loop per step, so that each compiles to
// vector code where the ISA has 64-bit multiplies and popcounts. Per
// block and bit b: (1) every cell's golden bit XOR its preferred word;
// (2) a branch-free list of the cells whose XOR has bit 0 set, the
// anti-preferred ones (a stuck cell holds its preferred value, so none is
// listed); (3) each listed cell's ΔVth popcount k₁ and disturb_key();
// (4) per epoch of bit b's prefix (the noisy LSBs never grow), each
// listed cell's disturbance popcount against the epoch's flip_from(k₁),
// read from a 64-bit copy of the table so the lookup is a 64-bit gather;
// entries 0 and 65 (always, never) fall out of the same compare. Same
// draws, same rule as SramCellModel::settled_value(). Inlined into each
// build's wrapper, which compiles it for its own ISA.
[[gnu::always_inline]] inline void settle_lanes(const SettleRange& r) {
  const std::size_t epochs = r.lsbs.size();
  const std::uint64_t seed = r.seed;
  const std::uint64_t bits = r.bits;
  const std::uint32_t noisy = std::min(r.lsbs[0], r.bits);
  std::array<std::uint64_t, kMaxPassEpochs> epoch{};
  std::array<std::uint64_t, kMaxPassEpochs> hits{};
  // Rows [0, epochs) only are written and read: the pass leaves the
  // stack pages of the others untouched.
  std::array<std::array<std::uint64_t, 65>, kMaxPassEpochs> from;
  for (std::size_t e = 0; e < epochs; ++e) {
    epoch[e] = r.settlers[e].epoch();
    for (unsigned k1 = 0; k1 <= 64; ++k1) {
      from[e][k1] = r.settlers[e].flip_from(k1);
    }
  }
  alignas(64) std::array<std::uint64_t, kSettleBlock> acc{};
  alignas(64) std::array<std::uint64_t, kSettleBlock> cells{};
  alignas(64) std::array<std::uint64_t, kSettleBlock> k1{};
  alignas(64) std::array<std::uint64_t, kSettleBlock> key{};
  alignas(64) std::array<std::uint64_t, kSettleBlock> word{};
  for (std::size_t block = r.begin; block < r.end; block += kSettleBlock) {
    const std::size_t n = std::min(r.end - block, kSettleBlock);
    const std::uint8_t* golden = r.golden + block;
    std::fill_n(acc.begin(), n, 0);
    for (std::uint32_t b = 0; b < noisy; ++b) {
      // Bit b settles in epochs [0, reach).
      std::size_t reach = 0;
      while (reach < epochs && b < r.lsbs[reach]) ++reach;
      const std::uint64_t id0 = r.cell_base + block * bits + b;
      for (std::size_t i = 0; i < n; ++i) {
        word[i] = (golden[i] >> b) ^
                  noise::cell_hash::preferred_word(seed, id0 + i * bits);
      }
      std::size_t m = 0;
      for (std::size_t i = 0; i < n; ++i) {
        cells[m] = i;
        m += word[i] & 1U;
      }
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint64_t id = id0 + cells[j] * bits;
        k1[j] = static_cast<std::uint64_t>(
            noise::cell_hash::vth_popcount(seed, id));
        key[j] = noise::cell_hash::disturb_key(seed, id);
        word[j] = 0;
      }
      for (std::size_t e = 0; e < reach; ++e) {
        const std::uint64_t* flip_from = from[e].data();
        const std::uint64_t at = epoch[e];
        const unsigned shift = r.shifts[e];
        std::uint64_t count = 0;
        for (std::size_t j = 0; j < m; ++j) {
          const std::uint64_t hit =
              static_cast<std::uint64_t>(
                  noise::cell_hash::disturb_popcount(key[j], at)) >=
              flip_from[k1[j]];
          word[j] |= hit << shift;
          count += hit;
        }
        hits[e] += count;
      }
      for (std::size_t j = 0; j < m; ++j) acc[cells[j]] |= word[j] << b;
    }
    for (std::size_t i = 0; i < n; ++i) {
      r.current[block + i] = static_cast<std::uint8_t>(golden[i] ^ acc[i]);
    }
    for (std::size_t h = 0; h < r.halves; ++h) {
      std::uint16_t* flips = r.flips + block * r.halves + h;
      for (std::size_t i = 0; i < n; ++i) {
        flips[i * r.halves] =
            static_cast<std::uint16_t>(acc[i] >> (8 + 16 * h));
      }
    }
  }
  for (std::size_t e = 0; e < epochs; ++e) r.epoch_flips[e] += hits[e];
}

void settle_base(const SettleRange& range) { settle_lanes(range); }

// The AVX-512 build needs GCC on x86-64: clang takes no
// prefer-vector-width in a target attribute.
#if defined(__x86_64__) && !defined(__clang__)
#define CIM_SETTLE_AVX512 1
// The explicit feature list, not arch=x86-64-v4: that level has no
// VPOPCNTDQ, and without a vector popcount GCC 12 leaves the draw loops
// scalar.
__attribute__((target("avx512f,avx512dq,avx512vl,avx512bw,avx512vpopcntdq,"
                      "prefer-vector-width=512"))) void
settle_avx512(const SettleRange& range) {
  settle_lanes(range);
}
#endif

class StorageBase : public WeightStorage {
 public:
  StorageBase(std::uint32_t rows, std::uint32_t cols,
              const noise::SramCellModel* model, std::uint64_t cell_base,
              std::uint32_t weight_bits)
      : WeightStorage(static_cast<std::uint64_t>(rows) * weight_bits),
        rows_(rows),
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
    }
  }

  const noise::SramCellModel* model() const { return model_; }

  void write(std::span<const std::uint8_t> golden) override {
    CIM_REQUIRE(golden.size() == weight_count(),
                "weight image size mismatch");
    validate_image(golden, bits_);
    write_range(golden, 0, weight_count());
  }

  // A batch of this one storage (defined below StorageBatch).
  void write_back(const noise::SchedulePhase& phase) override;

  bool written() const { return written_; }

  // Installs weights [begin, end) of the validated full image `golden`
  // with the hard manufacturing faults applied: a stuck cell overrides
  // every write at any supply voltage, and holds its preferred value.
  // Ranges are independent, so StorageBatch runs disjoint ones
  // concurrently.
  // NOLINT(cim-counter-charge) — a golden-image install, not an access.
  void write_range(std::span<const std::uint8_t> golden, std::size_t begin,
                   std::size_t end) {
    std::copy(golden.data() + begin, golden.data() + end,
              current_.get() + begin);
    const double stuck_rate = model_ ? model_->params().stuck_cell_rate : 0;
    for (std::size_t w = begin; w < end && stuck_rate > 0.0; ++w) {
      for (std::uint32_t b = 0; b < bits_; ++b) {
        const std::uint64_t id = cell_id(w, b);
        if (noise::cell_hash::is_stuck(model_->seed(), id, stuck_rate)) {
          current_[w] = static_cast<std::uint8_t>(
              (current_[w] & ~(1U << b)) |
              (noise::cell_hash::preferred_bit(model_->seed(), id) << b));
        }
      }
    }
    if (model_) {
      std::copy(current_.get() + begin, current_.get() + end,
                golden_.get() + begin);
    }
    // One range per write starts the storage.
    if (begin == 0) written_ = true;
  }

  // Charges `flips` pseudo-read flips and, for a whole storage, the
  // write-back's other counters. StorageBatch::settle() has checked that
  // the storage was written.
  void charge_write_back(bool whole, std::uint64_t flips) {
    counters_.writeback_events += whole ? 1 : 0;
    counters_.writeback_bits += whole ? weight_count() * bits_ : 0;
    counters_.pseudo_read_flips += flips;
  }

  // Allocates flip words of `halves` 16-bit halves per weight (0: none
  // needed), on the first anneal rather than with the storage: by then the
  // caller's write() image is freed and the words can reuse its memory
  // instead of raising the peak. Never called from a pooled task.
  void reserve_flips(unsigned halves) {
    if (halves == 0 || halves == halves_) return;
    flips_ = std::make_unique_for_overwrite<std::uint16_t[]>(weight_count() *
                                                             halves);
    halves_ = halves;
  }

  // Settles weights [begin, end) through consecutive noisy epochs at once
  // with the `target` build (SettleRange): epoch 0 into the plane the MACs
  // read, the later ones into the flip words; flips[e] gains epoch e's
  // count. Ranges are independent; the caller charges.
  // NOLINT(cim-counter-charge)
  void settle_epochs(SettleTarget target,
                     std::span<const noise::PhaseSettler> settlers,
                     std::span<const unsigned> lsbs,
                     std::span<const unsigned> shifts, std::size_t begin,
                     std::size_t end, std::uint64_t* flips) {
    settle_range(target, {.seed = model_->seed(),
                          .cell_base = cell_base_,
                          .bits = bits_,
                          .settlers = settlers,
                          .lsbs = lsbs,
                          .shifts = shifts,
                          .golden = golden_.get(),
                          .current = current_.get(),
                          .flips = flips_.get(),
                          .halves = lsbs.size() > 1 ? halves_ : 0,
                          .begin = begin,
                          .end = end,
                          .epoch_flips = flips});
  }

  // Makes weights [begin, end) of the plane the MACs read the golden image
  // XOR the `lsbs` flips settle_epochs() put at accumulator bit `shift`
  // (none for lsbs = 0). Ranges are independent; the caller charges the
  // write-back. NOLINT(cim-counter-charge)
  void install(unsigned shift, unsigned lsbs, std::size_t begin,
               std::size_t end) {
    const unsigned at = lsbs == 0 ? 0 : shift - 8;  // in the flip word
    for (std::size_t w = begin; w < end; ++w) {
      const unsigned flips =
          lsbs == 0 ? 0U
                    : (flips_[w * halves_ + at / 16] >> at % 16) &
                          ((1U << lsbs) - 1U);
      current_[w] = static_cast<std::uint8_t>(golden_[w] ^ flips);
    }
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
  std::span<const std::uint8_t> settled_row(RowIndex row) const override {
    CIM_ASSERT(row.get() < rows_);
    return {&current_[index(row.get(), 0)], cols_};
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
  /// applied, and from the first anneal the flip words of settle_epochs(),
  /// halves_ 16-bit halves per weight.
  std::unique_ptr<std::uint8_t[]> golden_;
  std::unique_ptr<std::uint16_t[]> flips_;
  unsigned halves_ = 0;
  bool written_ = false;
};

class BitLevelStorage final : public StorageBase {
 public:
  BitLevelStorage(std::uint32_t rows, std::uint32_t cols,
                  const noise::SramCellModel* model, std::uint64_t cell_base,
                  std::uint32_t weight_bits)
      : StorageBase(rows, cols, model, cell_base, weight_bits), tree_(rows) {
    const std::size_t n_cells = weight_count() * bits_;
    stored_.assign(n_cells, 0);
    golden_bits_.assign(n_cells, 0);
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
        golden_bits_[w * bits_ + b] = (golden[w] >> b) & 1U;
      }
    }
    stored_ = golden_bits_;
    apply_stuck_faults();
    written_ = true;
  }

  void write_back(const noise::SchedulePhase& phase) override {
    CIM_ASSERT_MSG(written_, "write_back before write");
    stored_ = golden_bits_;
    ++counters_.writeback_events;
    counters_.writeback_bits += stored_.size();
    apply_stuck_faults();
    if (!model_) return;
    const std::uint32_t noisy = std::min(phase.noisy_lsbs, bits_);
    for (std::size_t w = 0; w < weight_count(); ++w) {
      for (std::uint32_t b = 0; b < noisy; ++b) {
        const std::size_t cell = w * bits_ + b;
        const bool bit = stored_[cell] != 0;
        const bool settled =
            model_->settled_value(cell_id(w, b), phase.epoch, phase.vdd, bit);
        stored_[cell] = settled ? 1 : 0;
        counters_.pseudo_read_flips += settled != bit ? 1 : 0;
      }
    }
  }

  std::int64_t mac(ColIndex col_idx,
                   std::span<const std::uint8_t> input) override {
    const std::uint32_t col = col_idx.get();
    CIM_ASSERT(col < cols_);
    CIM_ASSERT(input.size() == rows_);
    // Assemble bit-plane NOR products.
    planes_.assign(static_cast<std::size_t>(bits_) * rows_, 0);
    for (std::uint32_t r = 0; r < rows_; ++r) {
      const std::size_t w = index(r, col);
      for (std::uint32_t b = 0; b < bits_; ++b) {
        // 14T cell multiply: input NOR-combined with the stored bit acts
        // as a 1-bit AND of input and weight-bit (active-low NOR logic).
        planes_[static_cast<std::size_t>(b) * rows_ + r] =
            static_cast<std::uint8_t>(input[r] & stored_[w * bits_ + b]);
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

  AdderTree tree_;
  std::vector<std::uint8_t> stored_;
  std::vector<std::uint8_t> golden_bits_;
  std::vector<std::uint8_t> planes_;
  std::vector<std::uint32_t> plane_sums_;
  bool written_ = false;
};

}  // namespace

SettleTarget settle_target() {
#if defined(CIM_SETTLE_AVX512)
  static const SettleTarget target = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
                   __builtin_cpu_supports("avx512dq") &&
                   __builtin_cpu_supports("avx512vl") &&
                   __builtin_cpu_supports("avx512bw") &&
                   __builtin_cpu_supports("avx512vpopcntdq")
               ? SettleTarget::kAvx512
               : SettleTarget::kBase;
  }();
  return target;
#else
  return SettleTarget::kBase;
#endif
}

const char* to_string(SettleTarget target) {
  return target == SettleTarget::kAvx512 ? "avx512" : "base";
}

void settle_range(SettleTarget target, const SettleRange& range) {
  CIM_REQUIRE(target == SettleTarget::kBase || target == settle_target(),
              "this CPU cannot run the AVX-512 settle build");
  CIM_ASSERT(!range.lsbs.empty() && range.lsbs.size() <= kMaxPassEpochs &&
             range.settlers.size() == range.lsbs.size() &&
             range.shifts.size() == range.lsbs.size());
#if defined(CIM_SETTLE_AVX512)
  if (target == SettleTarget::kAvx512) {
    settle_avx512(range);
    return;
  }
#endif
  settle_base(range);
}

StorageBatch::StorageBatch(const std::vector<WeightStorage*>& storages,
                           SettleTarget target)
    : target_(target) {
  CIM_REQUIRE(target == SettleTarget::kBase || target == settle_target(),
              "this CPU cannot run the AVX-512 settle build");
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

void StorageBatch::settle(std::span<const noise::SchedulePhase> noisy) {
  // Checked before any pass reads a golden image: an unwritten fast
  // storage's is uninitialised.
  for (const Piece& piece : pieces_) {
    CIM_ASSERT_MSG(!piece.split ||
                       static_cast<FastStorage*>(piece.storage)->written(),
                   "write_back before write");
  }
  lsbs_.clear();
  shifts_.clear();
  unsigned word_bits = 0;  // of the flip word: the epochs after the first
  for (const noise::SchedulePhase& phase : noisy) {
    const unsigned lsbs = std::min(phase.noisy_lsbs, 8U);
    CIM_ASSERT(lsbs > 0 && (lsbs_.empty() || lsbs <= lsbs_.back()));
    // No epoch's flips straddle the word's two 16-bit halves.
    const unsigned at =
        word_bits % 16 + lsbs > 16 ? (word_bits + 15) / 16 * 16 : word_bits;
    if (!lsbs_.empty() && at + lsbs > 32) break;  // a later pass
    shifts_.push_back(lsbs_.empty() ? 0 : 8 + at);
    word_bits = lsbs_.empty() ? 0 : at + lsbs;
    lsbs_.push_back(lsbs);
  }
  CIM_ASSERT_MSG(lsbs_.size() <= kMaxPassEpochs,
                 "a settle pass holds more epochs than its flip word");
  if (models_.empty() || lsbs_.empty()) return;
  const std::size_t epochs = lsbs_.size();
  settlers_.clear();
  for (const noise::SramCellModel* model : models_) {
    for (const noise::SchedulePhase& phase : noisy.first(epochs)) {
      settlers_.emplace_back(*model, phase.epoch, phase.vdd);
    }
  }
  epoch_flips_.assign(pieces_.size() * epochs, 0);
  for (const Piece& piece : pieces_) {
    if (piece.settler != kNoModel && piece.begin == 0) {
      static_cast<FastStorage*>(piece.storage)
          ->reserve_flips((word_bits + 15) / 16);
    }
  }
  run_tasks(task_end_.size(), [this, epochs](std::size_t t) {
    for (std::size_t i = t == 0 ? 0 : task_end_[t - 1]; i < task_end_[t];
         ++i) {
      const Piece& piece = pieces_[i];
      if (piece.settler == kNoModel) continue;
      static_cast<FastStorage*>(piece.storage)
          ->settle_epochs(
              target_,
              std::span(settlers_).subspan(piece.settler * epochs, epochs),
              lsbs_, shifts_, piece.begin, piece.end,
              &epoch_flips_[i * epochs]);
    }
  });
}

void StorageBatch::commit(const noise::SchedulePhase& phase, std::size_t e) {
  const std::size_t epochs = lsbs_.size();
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    const Piece& piece = pieces_[i];
    if (!piece.split) {
      piece.storage->write_back(phase);
      continue;
    }
    static_cast<FastStorage*>(piece.storage)
        ->charge_write_back(piece.begin == 0,
                            piece.settler != kNoModel && e < epochs
                                ? epoch_flips_[i * epochs + e]
                                : 0);
  }
  // The settle put epoch 0 in place, and the first epoch past the settled
  // ones installs the golden image for all later ones.
  if (models_.empty() || e > epochs || (e == 0 && epochs > 0)) return;
  run_tasks(task_end_.size(), [this, e](std::size_t t) {
    const bool noisy = e < lsbs_.size();
    for (std::size_t i = t == 0 ? 0 : task_end_[t - 1]; i < task_end_[t];
         ++i) {
      const Piece& piece = pieces_[i];
      if (piece.settler == kNoModel) continue;
      static_cast<FastStorage*>(piece.storage)
          ->install(noisy ? shifts_[e] : 0, noisy ? lsbs_[e] : 0,
                    piece.begin, piece.end);
    }
  });
}

void StorageBatch::write_back(const noise::SchedulePhase& phase) {
  settle(std::span(&phase, phase.noisy_lsbs > 0 ? 1 : 0));
  commit(phase, 0);
}

void StorageBatch::run_epochs(
    const noise::AnnealSchedule& schedule, std::uint64_t epoch_base,
    util::FunctionRef<void(std::size_t, std::size_t)> epoch) {
  const std::size_t iterations = schedule.total_iterations();
  const std::size_t step = schedule.params().iterations_per_step;
  phases_.clear();
  for (std::size_t begin = 0; begin < iterations; begin += step) {
    phases_.push_back(schedule.at(begin));
    phases_.back().epoch += epoch_base;
  }
  // The schedule drops a noisy LSB per epoch, so the noisy epochs lead.
  std::size_t noisy = 0;
  while (noisy < phases_.size() && phases_[noisy].noisy_lsbs > 0) ++noisy;
  std::size_t first = 0;  // settle() took epochs [first, first + lsbs_)
  for (std::size_t e = 0; e < phases_.size(); ++e) {
    if (e == 0 || (e == first + lsbs_.size() && e < noisy)) {
      first = e;
      settle(std::span(phases_).subspan(e, noisy - e));
    }
    commit(phases_[e], e - first);
    epoch(e * step, std::min(iterations, e * step + step));
  }
}

void FastStorage::write_back(const noise::SchedulePhase& phase) {
  StorageBatch({this}).write_back(phase);
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
    std::uint32_t weight_bits) {
  return std::make_unique<BitLevelStorage>(rows, cols, model, cell_base,
                                           weight_bits);
}

}  // namespace cim::hw
