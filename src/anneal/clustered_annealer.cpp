#include "anneal/clustered_annealer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "anneal/top_ring.hpp"
#include "cim/window.hpp"
#include "tsp/dist_cache.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/parallel_for.hpp"
#include "util/random.hpp"
#include "util/telemetry.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace cim::anneal {

namespace telemetry = util::telemetry;

namespace {

using cluster::Hierarchy;
using noise::SchedulePhase;

/// Slots per write-back task: a p = 3 window refreshes in a few µs, so
/// single-slot tasks would be mostly pool overhead.
constexpr std::size_t kRefreshGrain = 8;

/// One ring position during a level solve: a cluster, its members, its
/// compact weight window and its current member order.
struct Slot {
  std::vector<std::uint32_t> members;  ///< item ids one level below
  std::vector<geo::Point> points;      ///< member representative positions
  std::vector<std::uint32_t> perm;     ///< perm[order] = local member index
  std::unique_ptr<hw::WeightStorage> storage;
  hw::WindowShape shape;
  std::uint32_t prev = 0;
  std::uint32_t next = 0;
  std::uint8_t color = 0;
  std::uint64_t spin_cell_base = 0;  ///< register-cell ids for kSramSpin

  /// Sparse swap-kernel state: the p + 2 currently-set input rows (own
  /// spins at entries [0, p), then the predecessor and successor boundary
  /// rows) plus a dense 0/1 view of the same set. Maintained
  /// incrementally — a swap moves exactly two own entries, and the
  /// boundary entries follow the neighbours' perms.
  std::vector<std::uint32_t> active;
  std::vector<std::uint8_t> in_mask;

  /// kSramSpin per-epoch noise cache: the error pattern is spatially
  /// fixed within an epoch, so the per-row settle outcomes are
  /// precomputed once per (slot, epoch) instead of per MAC input bit.
  /// spin_drop[r] — a written 1 reads as 0; spin_add — rows whose written
  /// 0 reads as 1.
  std::uint64_t spin_epoch = ~0ULL;
  std::vector<std::uint8_t> spin_drop;
  std::vector<std::uint32_t> spin_add;

  /// Swap ΔE cache (DESIGN.md §16): delta_cache[i·p + j] (i < j) is the
  /// 4-MAC energy delta of swapping orders i and j from the input state
  /// identified by its stamp == input_gen. input_gen moves to a fresh
  /// value from the monotonic gen_counter whenever anything a MAC reads
  /// changes — an active-row entry (so also the perm), the spin settle
  /// cache, or the weights at write-back — and a rejected swap *restores*
  /// the pre-swap generation after reverting, so entries cached before the
  /// attempt stay valid across rejection streaks. A stamp of 0 never
  /// matches (generations start at 1).
  struct CachedDelta {
    std::int64_t delta = 0;
    std::uint64_t stamp = 0;
  };
  std::vector<CachedDelta> delta_cache;
  std::uint64_t gen_counter = 1;
  std::uint64_t input_gen = 1;

  std::uint32_t p() const { return static_cast<std::uint32_t>(members.size()); }
};

/// Per-worker scratch buffers for attempt_swap (one per thread in the
/// colour-parallel mode, so workers never share mutable state).
struct SwapScratch {
  std::vector<std::uint8_t> input;   ///< dense input (legacy kernel)
  std::vector<std::uint32_t> rows;   ///< noisy row list (kSramSpin sparse)
  /// Distance cache for the accepted-swap exact deltas (level 0 only).
  /// The coordinating thread's scratch holds the solver's own cache;
  /// colour-parallel workers create theirs on first use. Owned, so the
  /// hot path never shares mutable state or touches an atomic; stats are
  /// flushed once per level.
  std::unique_ptr<tsp::DistanceCache> dcache;
};

/// Solves the member order of every cluster at one hierarchy level.
class LevelSolver {
 public:
  LevelSolver(const AnnealerConfig& config, const tsp::Instance& instance,
              const Hierarchy& hierarchy, std::size_t level,
              const std::vector<std::uint32_t>& ring,
              const noise::SramCellModel& cell_model,
              const noise::AnnealSchedule& schedule, util::Rng& rng,
              std::uint64_t epoch_base,
              const std::vector<std::uint64_t>* member_rank = nullptr)
      : config_(config),
        instance_(instance),
        hierarchy_(hierarchy),
        level_(level),
        cell_model_(cell_model),
        schedule_(schedule),
        rng_(rng),
        epoch_base_(epoch_base),
        member_rank_(member_rank),
        memoize_(config.memoize_partial_sums && config.sparse_swap_kernel) {
    if (level_ == 0) {
      // Level 0 asks for exact TSPLIB distances (sqrt + rounding) from the
      // window builder, the accepted-swap deltas and the ring scorer; the
      // serial scratch's cache covers the coordinating thread, workers
      // carry their own in SwapScratch.
      scratch_.dcache = std::make_unique<tsp::DistanceCache>(instance_);
    }
    build_slots(ring);
    build_windows();
    for (Slot& slot : slots_) init_active(slot);
    if (config_.color_threads > 1) {
      const std::uint64_t level_stream = util::stream_seed(
          util::hash_combine(config_.seed, 0xC0102ULL),
          static_cast<std::uint64_t>(level_));
      slot_rngs_.reserve(slots_.size());
      for (std::size_t r = 0; r < slots_.size(); ++r) {
        slot_rngs_.emplace_back(util::stream_seed(level_stream, r));
      }
    }
  }

  LevelStats run(HardwareActivity& hw, std::vector<double>* trace);

  /// Expanded ring: member item ids in final visiting order.
  std::vector<std::uint32_t> expanded_ring() const;

  /// Level metric: cyclic length over the expanded member sequence using
  /// exact (unquantised) distances.
  double exact_ring_length() const;

 private:
  void build_slots(const std::vector<std::uint32_t>& ring);
  void build_windows();

  geo::Point item_point(std::uint32_t item) const {
    if (level_ == 0) return instance_.coord(item);
    return hierarchy_.level(level_ - 1).clusters[item].centroid;
  }

  /// Exact member-to-member distance (TSPLIB integer metric at level 0,
  /// centroid Euclidean above). The level-0 metric goes through `cache`
  /// when one is supplied — the cache returns the exact instance values,
  /// so cached and uncached runs are bit-identical.
  double exact_distance(const geo::Point& a, const geo::Point& b,
                        std::uint32_t item_a, std::uint32_t item_b,
                        tsp::DistanceCache* cache) const {
    if (level_ == 0) {
      if (cache != nullptr) {
        return static_cast<double>(cache->distance(item_a, item_b));
      }
      return static_cast<double>(instance_.distance(item_a, item_b));
    }
    return geo::euclidean(a, b);
  }

  /// Serial-path overload: routes through the coordinating thread's cache.
  /// Only the window builder, the ring scorer and other single-threaded
  /// callers may use it — workers pass their own cache explicitly.
  double exact_distance(const geo::Point& a, const geo::Point& b,
                        std::uint32_t item_a, std::uint32_t item_b) const {
    return exact_distance(a, b, item_a, item_b, scratch_.dcache.get());
  }

  std::uint8_t quantise(double d) const {
    if (scale_ <= 0.0) return 0;
    const double q = std::round(d * scale_);
    const double max_code =
        static_cast<double>((1U << config_.weight_bits) - 1U);
    return static_cast<std::uint8_t>(std::clamp(q, 0.0, max_code));
  }

  /// Builds the input bit-vector of `slot` from the current permutations
  /// (legacy dense kernel; the reference the sparse path must match).
  void assemble_input(const Slot& slot, std::vector<std::uint8_t>& input,
                      const SchedulePhase& phase) const;

  /// Initialises the persistent active-row list of `slot` from its perm.
  void init_active(Slot& slot);
  /// Points active[idx] at `row`, keeping the dense mask in sync.
  void set_active_entry(Slot& slot, std::uint32_t idx, std::uint32_t row);
  /// Re-derives the two boundary entries from the neighbours' perms (they
  /// change when a neighbour accepts a swap at its first/last order — or,
  /// on a single-slot ring, when this slot does).
  void refresh_boundary(Slot& slot);
  /// Rebuilds the kSramSpin settle cache when the epoch changed; tallies
  /// cache hits/refreshes and the settle decisions drawn on a rebuild.
  void refresh_spin_cache(Slot& slot, const SchedulePhase& phase,
                          LevelStats& stats);
  /// The set input rows after spin noise: the clean active list in every
  /// mode but kSramSpin, where cached per-epoch settle outcomes drop
  /// written-1 rows and add settled-to-1 rows.
  std::span<const std::uint32_t> noisy_input_rows(
      const Slot& slot, std::vector<std::uint32_t>& scratch) const;

  bool attempt_swap(Slot& slot, const SchedulePhase& phase,
                    LevelStats& stats, HardwareActivity& hw, util::Rng& rng,
                    SwapScratch& scratch);

  /// Updates all slots of one colour on up to config_.color_threads pool
  /// tasks (the persistent shared ThreadPool — no threads are created in
  /// the epoch loop).
  void run_color_parallel(std::uint8_t color, const SchedulePhase& phase,
                          LevelStats& stats, HardwareActivity& hw);

  /// Exact (noise-free, unquantised) energy delta of the swap (i, j) that
  /// has already been applied to slot.perm. `cache` is the caller's
  /// distance cache (per-worker in the colour-parallel mode), or nullptr.
  double exact_swap_delta_applied(Slot& slot, std::uint32_t i,
                                  std::uint32_t j,
                                  tsp::DistanceCache* cache) const;

  const AnnealerConfig& config_;
  const tsp::Instance& instance_;
  const Hierarchy& hierarchy_;
  std::size_t level_;
  const noise::SramCellModel& cell_model_;
  const noise::AnnealSchedule& schedule_;
  util::Rng& rng_;
  std::uint64_t epoch_base_;
  /// Warm-start ranks (per item id one level below `level_`), or nullptr
  /// for the cold identity order. Slot perms initialise sorted by rank.
  const std::vector<std::uint64_t>* member_rank_;
  const bool memoize_;  ///< swap ΔE cache active for the sparse kernel

  std::vector<Slot> slots_;
  std::uint8_t color_count_ = 1;
  double scale_ = 0.0;  ///< quantisation: weight = distance * scale_
  /// Coordinating thread's scratch. Its distance cache (level 0 only)
  /// serves the window build, ring scoring and the single-threaded swap
  /// path.
  SwapScratch scratch_;
  /// Per-slot RNG streams (colour-parallel mode only): derived statelessly
  /// from the level seed so results are independent of worker count and
  /// execution order within a colour phase.
  std::vector<util::Rng> slot_rngs_;
  std::vector<std::size_t> color_slots_;  ///< scratch for one colour's slots
  /// Per-task accumulators for the colour-parallel mode, sized once and
  /// reused across colours, epochs and levels — the epoch loop performs
  /// no allocation and no thread creation.
  std::vector<LevelStats> worker_stats_;
  std::vector<HardwareActivity> worker_hw_;
  std::vector<SwapScratch> worker_scratch_;
};

void LevelSolver::build_slots(const std::vector<std::uint32_t>& ring) {
  CIM_ASSERT(!ring.empty());
  const auto& clusters = hierarchy_.level(level_).clusters;
  slots_.resize(ring.size());
  for (std::size_t r = 0; r < ring.size(); ++r) {
    Slot& slot = slots_[r];
    const cluster::Cluster& c = clusters[ring[r]];
    slot.members = c.members;
    slot.points.reserve(slot.members.size());
    for (const std::uint32_t item : slot.members) {
      slot.points.push_back(item_point(item));
    }
    slot.perm.resize(slot.members.size());
    for (std::uint32_t i = 0; i < slot.perm.size(); ++i) slot.perm[i] = i;
    if (member_rank_ != nullptr) {
      // Warm start: visit members in the order the warm tour visits them.
      // Ranks are min-city-ranks of disjoint city sets, hence distinct —
      // the sort is a strict total order and fully deterministic.
      std::sort(slot.perm.begin(), slot.perm.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return (*member_rank_)[slot.members[a]] <
                         (*member_rank_)[slot.members[b]];
                });
    }
    slot.prev = static_cast<std::uint32_t>((r + ring.size() - 1) %
                                           ring.size());
    slot.next = static_cast<std::uint32_t>((r + 1) % ring.size());
  }
  // Window shapes (and from them the collision-free spin-register cell-id
  // bases) only need the neighbour member counts, all known now.
  for (Slot& slot : slots_) {
    slot.shape = hw::WindowShape{slot.p(), slots_[slot.prev].p(),
                                 slots_[slot.next].p()};
  }
  std::vector<hw::WindowShape> shapes;
  shapes.reserve(slots_.size());
  for (const Slot& slot : slots_) shapes.push_back(slot.shape);
  const auto bases = spin_cell_bases(shapes);
  for (std::size_t r = 0; r < slots_.size(); ++r) {
    slots_[r].spin_cell_base = bases[r];
  }
  // Chromatic colouring of the ring: alternate parity; an odd ring (of
  // length > 1) gives its last slot a third colour so no two adjacent
  // slots share a colour.
  color_count_ = 1;
  if (slots_.size() > 1) {
    color_count_ = 2;
    for (std::size_t r = 0; r < slots_.size(); ++r) {
      slots_[r].color = static_cast<std::uint8_t>(r % 2);
    }
    if (slots_.size() % 2 == 1) {
      slots_.back().color = 2;
      color_count_ = 3;
    }
  }
}

void LevelSolver::build_windows() {
  // Quantisation scale from the largest distance any window stores.
  double dmax = 0.0;
  for (const Slot& slot : slots_) {
    const Slot& prev = slots_[slot.prev];
    const Slot& next = slots_[slot.next];
    for (std::size_t a = 0; a < slot.points.size(); ++a) {
      for (std::size_t b = a + 1; b < slot.points.size(); ++b) {
        dmax = std::max(dmax,
                        exact_distance(slot.points[a], slot.points[b],
                                       slot.members[a], slot.members[b]));
      }
      for (std::size_t j = 0; j < prev.points.size(); ++j) {
        dmax = std::max(dmax,
                        exact_distance(prev.points[j], slot.points[a],
                                       prev.members[j], slot.members[a]));
      }
      for (std::size_t j = 0; j < next.points.size(); ++j) {
        dmax = std::max(dmax,
                        exact_distance(next.points[j], slot.points[a],
                                       next.members[j], slot.members[a]));
      }
    }
  }
  // Full-scale code of the configured precision maps to the largest
  // window distance.
  const double max_code =
      static_cast<double>((1U << config_.weight_bits) - 1U);
  scale_ = dmax > 0.0 ? max_code / dmax : 0.0;

  // Weight noise only exists in the SRAM-weight mode; the other modes run
  // on clean weights (spin noise / LFSR randomness enter elsewhere).
  const noise::SramCellModel* weight_model =
      config_.noise == NoiseMode::kSramWeight ? &cell_model_ : nullptr;

  std::uint64_t cell_base = 0;
  for (Slot& slot : slots_) {
    hw::WindowBuilder builder(slot.shape);
    for (std::uint32_t a = 0; a < slot.p(); ++a) {
      for (std::uint32_t b = a + 1; b < slot.p(); ++b) {
        builder.set_own_distance(
            a, b,
            quantise(exact_distance(slot.points[a], slot.points[b],
                                    slot.members[a], slot.members[b])));
      }
      const Slot& prev = slots_[slot.prev];
      for (std::uint32_t j = 0; j < slot.shape.p_prev; ++j) {
        builder.set_prev_distance(
            j, a,
            quantise(exact_distance(prev.points[j], slot.points[a],
                                    prev.members[j], slot.members[a])));
      }
      const Slot& next = slots_[slot.next];
      for (std::uint32_t j = 0; j < slot.shape.p_next; ++j) {
        builder.set_next_distance(
            j, a,
            quantise(exact_distance(next.points[j], slot.points[a],
                                    next.members[j], slot.members[a])));
      }
    }
    const auto image = builder.build();
    if (config_.backend == BackendKind::kFast) {
      slot.storage = hw::make_fast_storage(slot.shape.rows(),
                                           slot.shape.cols(), weight_model,
                                           cell_base, config_.weight_bits);
    } else {
      slot.storage = hw::make_bit_level_storage(
          slot.shape.rows(), slot.shape.cols(), weight_model, cell_base,
          config_.weight_bits);
    }
    slot.storage->write(image);
    cell_base += static_cast<std::uint64_t>(slot.shape.weights()) *
                 config_.weight_bits;
    if (memoize_) {
      // Stamp 0 never matches a generation (they start at 1), so every
      // order pair opens cold.
      slot.delta_cache.assign(static_cast<std::size_t>(slot.p()) * slot.p(),
                              {});
    }
  }
}

void LevelSolver::assemble_input(const Slot& slot,
                                 std::vector<std::uint8_t>& input,
                                 const SchedulePhase& phase) const {
  // NOLINT(anneal-dense-rebuild): this full-vector rebuild is the dense
  // reference baseline the sparse kernel is verified against.
  input.assign(slot.shape.rows(), 0);
  const std::uint32_t p = slot.p();
  for (std::uint32_t i = 0; i < p; ++i) {
    input[i * p + slot.perm[i]] = 1;
  }
  const Slot& prev = slots_[slot.prev];
  const Slot& next = slots_[slot.next];
  input[slot.shape.own_rows() + prev.perm.back()] = 1;
  input[slot.shape.own_rows() + slot.shape.p_prev + next.perm.front()] = 1;

  if (config_.noise == NoiseMode::kSramSpin) {
    // [4]-style: the spin registers themselves are the noisy cells; the
    // error pattern is spatial (fixed per epoch), so repeated reads of the
    // same state give the same corrupted state.
    for (std::uint32_t r = 0; r < input.size(); ++r) {
      const bool bit = input[r] != 0;
      const bool noisy = filter_spin_bit(cell_model_,
                                         slot.spin_cell_base + r, phase, bit);
      input[r] = noisy ? 1 : 0;
    }
  }
}

void LevelSolver::init_active(Slot& slot) {
  // NOLINT(anneal-dense-rebuild): one-time construction, not the hot path.
  slot.in_mask.assign(slot.shape.rows(), 0);
  slot.active.assign(slot.p() + 2ULL, 0);
  const std::uint32_t p = slot.p();
  for (std::uint32_t i = 0; i < p; ++i) {
    slot.active[i] = i * p + slot.perm[i];
    slot.in_mask[slot.active[i]] = 1;
  }
  const Slot& prev = slots_[slot.prev];
  const Slot& next = slots_[slot.next];
  slot.active[p] = slot.shape.own_rows() + prev.perm.back();
  slot.active[p + 1] =
      slot.shape.own_rows() + slot.shape.p_prev + next.perm.front();
  slot.in_mask[slot.active[p]] = 1;
  slot.in_mask[slot.active[p + 1]] = 1;
}

void LevelSolver::set_active_entry(Slot& slot, std::uint32_t idx,
                                   std::uint32_t row) {
  const std::uint32_t old = slot.active[idx];
  if (old == row) return;
  // The MAC input changed: move the slot to a fresh input generation so
  // cached swap deltas for the old state stop matching. The counter is
  // monotonic and generations are never reused, so a stale stamp can
  // never come back to life.
  slot.input_gen = ++slot.gen_counter;
  slot.in_mask[old] = 0;
  slot.active[idx] = row;
  slot.in_mask[row] = 1;
}

void LevelSolver::refresh_boundary(Slot& slot) {
  const Slot& prev = slots_[slot.prev];
  const Slot& next = slots_[slot.next];
  set_active_entry(slot, slot.p(),
                   slot.shape.own_rows() + prev.perm.back());
  set_active_entry(
      slot, slot.p() + 1,
      slot.shape.own_rows() + slot.shape.p_prev + next.perm.front());
}

void LevelSolver::refresh_spin_cache(Slot& slot, const SchedulePhase& phase,
                                     LevelStats& stats) {
  if (slot.spin_epoch == phase.epoch) {
    ++stats.settle_cache_hits;
    return;
  }
  ++stats.settle_cache_refreshes;
  // New epoch → new settle pattern → the noisy MAC input changes even
  // though the active rows did not.
  slot.input_gen = ++slot.gen_counter;
  slot.spin_epoch = phase.epoch;
  const std::uint32_t rows = slot.shape.rows();
  // One settle decision per row for each written value (1 and 0).
  stats.noise_draws += 2ULL * rows;
  slot.spin_drop.assign(rows, 0);
  slot.spin_add.clear();
  for (std::uint32_t r = 0; r < rows; ++r) {
    const std::uint64_t id = slot.spin_cell_base + r;
    if (!filter_spin_bit(cell_model_, id, phase, true)) {
      slot.spin_drop[r] = 1;
    }
    if (filter_spin_bit(cell_model_, id, phase, false)) {
      slot.spin_add.push_back(r);
    }
  }
}

std::span<const std::uint32_t> LevelSolver::noisy_input_rows(
    const Slot& slot, std::vector<std::uint32_t>& scratch) const {
  if (config_.noise != NoiseMode::kSramSpin) return slot.active;
  scratch.clear();
  for (const std::uint32_t r : slot.active) {
    if (!slot.spin_drop[r]) scratch.push_back(r);
  }
  for (const std::uint32_t r : slot.spin_add) {
    if (!slot.in_mask[r]) scratch.push_back(r);
  }
  return scratch;
}

// The 4-MAC swap kernel: the innermost hot path. A determinism-taint
// root so neither the noise model nor the storage backends it reaches
// can grow a non-deterministic source.
CIM_DETERMINISM_ROOT
bool LevelSolver::attempt_swap(Slot& slot, const SchedulePhase& phase,
                               LevelStats& stats, HardwareActivity& hw,
                               util::Rng& rng, SwapScratch& scratch) {
  const std::uint32_t p = slot.p();
  if (p < 2) return false;
  ++stats.swaps_attempted;
  ++hw.swap_attempts;

  std::uint32_t i = static_cast<std::uint32_t>(rng.below(p));
  std::uint32_t j = static_cast<std::uint32_t>(rng.below(p - 1));
  if (j >= i) ++j;
  if (i > j) std::swap(i, j);

  const std::uint32_t k = slot.perm[i];
  const std::uint32_t l = slot.perm[j];

  // Applies the swap to the perm and the active rows. Its own inverse,
  // so the reject path reverts with the same call.
  const auto swap_orders = [&] {
    std::swap(slot.perm[i], slot.perm[j]);
    set_active_entry(slot, i, i * p + slot.perm[i]);
    set_active_entry(slot, j, j * p + slot.perm[j]);
    refresh_boundary(slot);  // a single-slot ring neighbours itself
  };

  std::int64_t delta = 0;
  // Whether slot.perm currently holds the swap: the MAC paths apply it
  // before the post-swap MACs, a ΔE-cache hit applies it only on accept.
  bool applied = false;
  // Input generation to restore when the swap is rejected: the revert
  // returns the slot to exactly this input state, so swap deltas stamped
  // with it stay valid across rejection streaks.
  std::uint64_t pre_gen = 0;
  if (config_.sparse_swap_kernel) {
    // Incremental sparse kernel: the persistent active-row list holds the
    // p + 2 set input bits; a swap moves two own entries and the boundary
    // entries follow the neighbours' perms (refreshed O(1) here rather
    // than invalidation-pushed from the neighbour's accept).
    refresh_boundary(slot);
    if (config_.noise == NoiseMode::kSramSpin) {
      refresh_spin_cache(slot, phase, stats);
    }
    pre_gen = slot.input_gen;
    // Swap ΔE cache (DESIGN.md §16): the generation pins the weights, the
    // perm and every input row, so a matching stamp means the same four
    // columns under the same inputs, all already MAC'd — their lazy
    // pseudo-read corruption has settled and the MACs would repeat the
    // cached delta exactly. A hit charges the four MACs the hardware still
    // performs and skips the reductions and the apply/revert.
    Slot::CachedDelta* cached =
        memoize_ ? &slot.delta_cache[i * p + j] : nullptr;
    if (cached != nullptr && cached->stamp == pre_gen) {
      ++stats.memo_hits;
      slot.storage->charge_repeat_macs(4);
      delta = cached->delta;
    } else {
      // Two MACs with the pre-swap spin state (Fig. 5(a), cycles 1–2).
      const auto rows_pre = noisy_input_rows(slot, scratch.rows);
      const std::int64_t before =
          slot.storage->mac_sparse(hw::ColIndex(i * p + k), rows_pre) +
          slot.storage->mac_sparse(hw::ColIndex(j * p + l), rows_pre);
      // Apply the swap, two MACs with the post-swap state (cycles 3–4).
      swap_orders();
      applied = true;
      const auto rows_post = noisy_input_rows(slot, scratch.rows);
      const std::int64_t after =
          slot.storage->mac_sparse(hw::ColIndex(i * p + l), rows_post) +
          slot.storage->mac_sparse(hw::ColIndex(j * p + k), rows_post);
      delta = after - before;
      if (cached != nullptr) {
        *cached = {delta, pre_gen};
        ++stats.memo_misses;
      }
    }
  } else {
    // Dense reference baseline (ablation + micro-bench): rebuild the full
    // input vector and scan every row per MAC.
    auto& input = scratch.input;
    assemble_input(slot, input, phase);
    const std::int64_t before =
        slot.storage->mac(hw::ColIndex(i * p + k), input) +
        slot.storage->mac(hw::ColIndex(j * p + l), input);
    std::swap(slot.perm[i], slot.perm[j]);
    applied = true;
    assemble_input(slot, input, phase);
    const std::int64_t after =
        slot.storage->mac(hw::ColIndex(i * p + l), input) +
        slot.storage->mac(hw::ColIndex(j * p + k), input);
    delta = after - before;
    if (config_.noise == NoiseMode::kSramSpin) {
      // The dense ablation filters every input bit per assembly instead
      // of reusing a per-epoch settle cache.
      stats.noise_draws += 2ULL * slot.shape.rows();
    }
  }

  // Dataflow accounting: the boundary spins cross the array edge once per
  // update, and the input register realigns by one window. The extra
  // chromatic phase of an odd ring (colour 2) is neither a solid nor a
  // dash column and is tallied on its own.
  const auto parity = slot.color == 0   ? hw::UpdateParity::kSolid
                      : slot.color == 1 ? hw::UpdateParity::kDash
                                        : hw::UpdateParity::kThird;
  hw.dataflow.record_edge_transfer(parity, p);
  hw.dataflow.record_input_shift(p);

  bool accept = false;
  switch (config_.noise) {
    case NoiseMode::kSramWeight:
    case NoiseMode::kSramSpin:
    case NoiseMode::kNone:
      accept = delta < 0;
      break;
    case NoiseMode::kLfsr: {
      const double temperature = equivalent_temperature(cell_model_, phase);
      accept = delta < 0;
      if (!accept && temperature > 0.0) {
        ++stats.noise_draws;
        accept = rng.uniform() <
                 std::exp(-static_cast<double>(delta) / temperature);
      }
      break;
    }
  }
  if (!accept) {
    if (!applied) return false;  // a ΔE-cache hit never touched the perm
    if (config_.sparse_swap_kernel) {
      // The revert also re-syncs the boundary rows, which on a
      // single-slot ring follow this slot's own perm. Only then is the
      // input state exactly the pre-swap one and the generation may be
      // restored — swap deltas cached before the attempt become valid
      // again.
      swap_orders();
      slot.input_gen = pre_gen;
    } else {
      std::swap(slot.perm[i], slot.perm[j]);
    }
    return false;
  }
  ++stats.swaps_accepted;
  if (!applied) swap_orders();
  if (level_ == 0 && scratch.dcache == nullptr) {
    // Colour-parallel worker scratch: the coordinating thread's scratch
    // carries the solver's cache from construction.
    scratch.dcache = std::make_unique<tsp::DistanceCache>(instance_);
  }
  if (exact_swap_delta_applied(slot, i, j, scratch.dcache.get()) > 1e-9) {
    ++stats.uphill_accepted;
  }
  return true;
}

CIM_DETERMINISM_ROOT
void LevelSolver::run_color_parallel(std::uint8_t color,
                                     const SchedulePhase& phase,
                                     LevelStats& stats,
                                     HardwareActivity& hw) {
  color_slots_.clear();
  for (std::size_t r = 0; r < slots_.size(); ++r) {
    if (slots_[r].color == color) color_slots_.push_back(r);
  }
  const std::size_t tasks = std::min<std::size_t>(
      config_.color_threads, color_slots_.size());
  if (tasks <= 1) {
    // Same per-slot streams as the pooled path, so results do not depend
    // on how many tasks a colour happens to get.
    for (const std::size_t r : color_slots_) {
      attempt_swap(slots_[r], phase, stats, hw, slot_rngs_[r], scratch_);
    }
    return;
  }
  // Per-task accumulators persist across colours/epochs/levels; the slot
  // assignment strides by the task count, which depends only on the
  // configuration and the ring — never on pool width or steal order —
  // and every slot owns its RNG stream, so results are a pure function
  // of the seed.
  if (worker_stats_.size() < tasks) {
    worker_stats_.resize(tasks);
    worker_hw_.resize(tasks);
    worker_scratch_.resize(tasks);
  }
  for (std::size_t t = 0; t < tasks; ++t) {
    worker_stats_[t] = LevelStats{};
    worker_hw_[t] = HardwareActivity{};
  }
  util::ThreadPool::shared().run(tasks, [&](std::size_t t) {
    for (std::size_t q = t; q < color_slots_.size(); q += tasks) {
      const std::size_t r = color_slots_[q];
      attempt_swap(slots_[r], phase, worker_stats_[t], worker_hw_[t],
                   slot_rngs_[r], worker_scratch_[t]);
    }
  });
  for (std::size_t t = 0; t < tasks; ++t) {
    stats.swaps_attempted += worker_stats_[t].swaps_attempted;
    stats.swaps_accepted += worker_stats_[t].swaps_accepted;
    stats.uphill_accepted += worker_stats_[t].uphill_accepted;
    stats.settle_cache_hits += worker_stats_[t].settle_cache_hits;
    stats.settle_cache_refreshes += worker_stats_[t].settle_cache_refreshes;
    stats.noise_draws += worker_stats_[t].noise_draws;
    stats.memo_hits += worker_stats_[t].memo_hits;
    stats.memo_misses += worker_stats_[t].memo_misses;
    hw.swap_attempts += worker_hw_[t].swap_attempts;
    hw.dataflow += worker_hw_[t].dataflow;
  }
}

double LevelSolver::exact_swap_delta_applied(
    Slot& slot, std::uint32_t i, std::uint32_t j,
    tsp::DistanceCache* cache) const {
  // The swap is already applied to slot.perm; evaluate the exact energy
  // difference it produced: local energies of the swapped orders after
  // minus before (the noise-free counterpart of the 4-MAC comparison).
  const auto local = [&](std::uint32_t order, std::uint32_t member) {
    const Slot& prev = slots_[slot.prev];
    const Slot& next = slots_[slot.next];
    double acc = 0.0;
    const geo::Point pt = slot.points[member];
    const std::uint32_t item = slot.members[member];
    if (order == 0) {
      const std::uint32_t b = prev.perm.back();
      acc += exact_distance(prev.points[b], pt, prev.members[b], item, cache);
    } else {
      const std::uint32_t m = slot.perm[order - 1];
      if (m != member) {
        acc += exact_distance(slot.points[m], pt, slot.members[m], item,
                              cache);
      }
    }
    if (order + 1 == slot.p()) {
      const std::uint32_t b = next.perm.front();
      acc += exact_distance(next.points[b], pt, next.members[b], item, cache);
    } else {
      const std::uint32_t m = slot.perm[order + 1];
      if (m != member) {
        acc += exact_distance(slot.points[m], pt, slot.members[m], item,
                              cache);
      }
    }
    return acc;
  };

  const double after = local(i, slot.perm[i]) + local(j, slot.perm[j]);
  // Temporarily revert to evaluate the pre-swap energies.
  std::swap(slot.perm[i], slot.perm[j]);
  const double before = local(i, slot.perm[i]) + local(j, slot.perm[j]);
  std::swap(slot.perm[i], slot.perm[j]);
  return after - before;
}

// The epoch loop — the canonical determinism-taint root (DESIGN.md
// §13): everything reachable from here must draw randomness only
// from the seeded per-slot streams.
CIM_DETERMINISM_ROOT
LevelStats LevelSolver::run(HardwareActivity& hw,
                            std::vector<double>* trace) {
  LevelStats stats;
  stats.level = level_;
  stats.clusters = slots_.size();
  stats.iterations = schedule_.total_iterations();

  const std::uint32_t max_rows = [&] {
    std::uint32_t m = 0;
    for (const Slot& s : slots_) m = std::max(m, s.shape.rows());
    return m;
  }();

  // All trace events of the level solve are emitted from this
  // (coordinating) thread — pool workers only fill their per-task stats —
  // so the event stream lands in one sink and its order is program order,
  // independent of CIMANNEAL_THREADS (the golden-trajectory contract,
  // DESIGN.md §12).
  const telemetry::Scope level_scope(
      telemetry::Registry::global(), "anneal.level",
      {{"level", static_cast<double>(level_)},
       {"clusters", static_cast<double>(slots_.size())}});
  // Per-epoch swap deltas feeding the accept-rate histogram.
  [[maybe_unused]] std::size_t epoch_attempted = 0;
  [[maybe_unused]] std::size_t epoch_accepted = 0;

  for (std::size_t iter = 0; iter < schedule_.total_iterations(); ++iter) {
    SchedulePhase phase = schedule_.at(iter);
    phase.epoch += epoch_base_;

    if (phase.write_back) {
      // All arrays refresh in parallel — on the chip and on the shared
      // pool alike. Each slot owns its storage and counters, so the
      // result does not depend on the worker count.
      util::parallel_for(slots_.size(), kRefreshGrain, [&](std::size_t r) {
        slots_[r].storage->write_back(phase);
      });
      for (Slot& slot : slots_) {
        // Weights changed (golden restore + fresh corruption pattern):
        // every cached swap delta is stale.
        slot.input_gen = ++slot.gen_counter;
      }
      // Rows within an array are written sequentially.
      hw.writeback_cycles += max_rows;
      stats.update_cycles += max_rows;
    }

    if (config_.chromatic_parallel) {
      // All slots of one colour update in the same 4 MAC cycles: their
      // ring neighbours hold other colours, so the frozen-neighbour reads
      // are race-free (chromatic Gibbs sampling).
      for (std::uint8_t color = 0; color < color_count_; ++color) {
        if (!slot_rngs_.empty()) {
          run_color_parallel(color, phase, stats, hw);
        } else {
          for (Slot& slot : slots_) {
            if (slot.color == color) {
              attempt_swap(slot, phase, stats, hw, rng_, scratch_);
            }
          }
        }
        hw.update_cycles += 4;
        stats.update_cycles += 4;
      }
    } else {
      // Sequential Gibbs baseline: one cluster at a time.
      for (Slot& slot : slots_) {
        attempt_swap(slot, phase, stats, hw, rng_, scratch_);
        hw.update_cycles += 4;
        stats.update_cycles += 4;
      }
    }

    if (trace) {
      const double energy = exact_ring_length();
      trace->push_back(energy);
      if constexpr (telemetry::kEnabled) {
        // The telemetry copy of the convergence curve: the same value,
        // pushed in the same iteration — bench_fig2 asserts bit-equality.
        telemetry::Registry::global().instant(
            "anneal.trace", {{"level", static_cast<double>(level_)},
                             {"iteration", static_cast<double>(iter)},
                             {"energy", energy}});
      }
    }

    if constexpr (telemetry::kEnabled) {
      const bool epoch_done =
          iter + 1 == schedule_.total_iterations() ||
          schedule_.at(iter + 1).write_back;
      if (epoch_done) {
        telemetry::Registry& telem = telemetry::Registry::global();
        telem.counter_event(
            "anneal.epoch",
            {{"level", static_cast<double>(level_)},
             {"epoch", static_cast<double>(phase.epoch)},
             {"iteration", static_cast<double>(iter)},
             {"energy", exact_ring_length()},
             {"swaps_attempted", static_cast<double>(stats.swaps_attempted)},
             {"swaps_accepted", static_cast<double>(stats.swaps_accepted)},
             {"uphill_accepted", static_cast<double>(stats.uphill_accepted)},
             {"settle_cache_hits",
              static_cast<double>(stats.settle_cache_hits)},
             {"noise_draws", static_cast<double>(stats.noise_draws)}});
        const std::size_t attempted = stats.swaps_attempted - epoch_attempted;
        const std::size_t accepted = stats.swaps_accepted - epoch_accepted;
        telem
            .histogram("anneal.epoch_accept_rate",
                       {0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0})
            .observe(attempted == 0 ? 0.0
                                    : static_cast<double>(accepted) /
                                          static_cast<double>(attempted));
        epoch_attempted = stats.swaps_attempted;
        epoch_accepted = stats.swaps_accepted;
      }
    }
  }

  stats.ring_length_after = exact_ring_length();
  for (const Slot& slot : slots_) {
    hw.storage += slot.storage->counters();
  }
  // Collect the level's distance-cache traffic: the coordinating thread's
  // cache (window build + ring scoring + serial swap path) plus every
  // worker's private cache. A LevelSolver lives for exactly one level, so
  // the cumulative cache stats are the level totals.
  const auto flush_dcache =
      [&stats](const std::unique_ptr<tsp::DistanceCache>& cache) {
        if (!cache) return;
        stats.dcache_hits += cache->stats().hits;
        stats.dcache_misses += cache->stats().misses;
        stats.dcache_bytes += cache->stats().bytes_touched;
      };
  flush_dcache(scratch_.dcache);
  for (const SwapScratch& scratch : worker_scratch_) {
    flush_dcache(scratch.dcache);
  }

  if constexpr (telemetry::kEnabled) {
    // Flush the level totals into the monotonic registry counters.
    telemetry::Registry& telem = telemetry::Registry::global();
    telem.counter("anneal.swaps_attempted").add(stats.swaps_attempted);
    telem.counter("anneal.swaps_accepted").add(stats.swaps_accepted);
    telem.counter("anneal.uphill_accepted").add(stats.uphill_accepted);
    telem.counter("anneal.settle_cache_hits").add(stats.settle_cache_hits);
    telem.counter("anneal.settle_cache_refreshes")
        .add(stats.settle_cache_refreshes);
    telem.counter("anneal.noise_draws").add(stats.noise_draws);
    telem.counter("anneal.memo_hits").add(stats.memo_hits);
    telem.counter("anneal.memo_misses").add(stats.memo_misses);
    telem.counter("anneal.dcache_hits").add(stats.dcache_hits);
    telem.counter("anneal.dcache_misses").add(stats.dcache_misses);
    telem.counter("anneal.dcache_bytes").add(stats.dcache_bytes);
    telem.counter("anneal.update_cycles").add(stats.update_cycles);
    telem.counter("anneal.levels_solved").add(1);
  }
  return stats;
}

std::vector<std::uint32_t> LevelSolver::expanded_ring() const {
  std::vector<std::uint32_t> out;
  for (const Slot& slot : slots_) {
    for (std::uint32_t i = 0; i < slot.p(); ++i) {
      out.push_back(slot.members[slot.perm[i]]);
    }
  }
  return out;
}

double LevelSolver::exact_ring_length() const {
  // Walk the expanded member sequence with exact distances.
  double total = 0.0;
  geo::Point prev_pt{};
  std::uint32_t prev_item = 0;
  bool have_prev = false;
  geo::Point first_pt{};
  std::uint32_t first_item = 0;
  for (const Slot& slot : slots_) {
    for (std::uint32_t i = 0; i < slot.p(); ++i) {
      const std::uint32_t local = slot.perm[i];
      const geo::Point pt = slot.points[local];
      const std::uint32_t item = slot.members[local];
      if (have_prev) {
        total += exact_distance(prev_pt, pt, prev_item, item);
      } else {
        first_pt = pt;
        first_item = item;
        have_prev = true;
      }
      prev_pt = pt;
      prev_item = item;
    }
  }
  if (have_prev) {
    total += exact_distance(prev_pt, first_pt, prev_item, first_item);
  }
  return total;
}

}  // namespace

std::vector<std::uint64_t> spin_cell_bases(
    const std::vector<hw::WindowShape>& shapes) {
  // High tag keeps spin-register ids disjoint from the weight-cell ids,
  // which count up from 0.
  constexpr std::uint64_t kTag = 0x8000000000000000ULL;
  std::uint64_t stride = 256;  // historical stride, kept as a floor
  for (const hw::WindowShape& shape : shapes) {
    stride = std::max<std::uint64_t>(stride, shape.rows());
  }
  std::vector<std::uint64_t> bases(shapes.size());
  for (std::size_t r = 0; r < shapes.size(); ++r) {
    bases[r] = kTag | (static_cast<std::uint64_t>(r) * stride);
  }
  return bases;
}

ClusteredAnnealer::ClusteredAnnealer(AnnealerConfig config)
    : config_(std::move(config)) {
  CIM_REQUIRE(config_.weight_bits >= 1 && config_.weight_bits <= 8,
              "weight precision must be 1..8 bits");
  CIM_REQUIRE(config_.color_threads >= 1,
              "color_threads must be at least 1");
  CIM_REQUIRE(config_.color_threads == 1 ||
                  (config_.chromatic_parallel && config_.sparse_swap_kernel),
              "color_threads > 1 requires chromatic_parallel and the sparse "
              "swap kernel");
}

AnnealResult ClusteredAnnealer::solve(const tsp::Instance& instance) const {
  const telemetry::Scope solve_scope(
      telemetry::Registry::global(), "anneal.solve",
      {{"cities", static_cast<double>(instance.size())},
       {"seed", static_cast<double>(config_.seed)}});
  const Hierarchy hierarchy(instance, config_.clustering);

  AnnealResult result;
  result.hierarchy_depth = hierarchy.depth();
  result.max_cluster_size = hierarchy.max_cluster_size();

  const noise::SramCellModel cell_model(
      config_.sram, util::hash_combine(config_.seed, 0xCE11));
  const noise::AnnealSchedule schedule(config_.schedule);
  util::Rng rng(util::hash_combine(config_.seed, 0xA22EA1));

  // Warm start (src/store): rank every city by its position in the given
  // tour, propagate min-ranks up the hierarchy, and let ranks drive the
  // initial ring and member orders instead of the cold construction.
  const bool warm = !config_.initial_order.empty();
  std::vector<std::uint64_t> city_rank;
  std::vector<std::vector<std::uint64_t>> level_rank;
  if (warm) {
    CIM_REQUIRE(config_.initial_order.size() == instance.size(),
                "initial_order must be a permutation of the instance's "
                "cities");
    std::vector<std::uint8_t> seen(instance.size(), 0);
    city_rank.assign(instance.size(), 0);
    for (std::size_t pos = 0; pos < config_.initial_order.size(); ++pos) {
      const tsp::CityId city = config_.initial_order[pos];
      CIM_REQUIRE(city < instance.size() && !seen[city],
                  "initial_order must be a permutation of the instance's "
                  "cities");
      seen[city] = 1;
      city_rank[city] = pos;
    }
    // level_rank[k][c] = min rank over the cities of cluster c at level k
    // (distinct across clusters of a level: their city sets are disjoint).
    level_rank.resize(hierarchy.depth());
    for (std::size_t k = 0; k < hierarchy.depth(); ++k) {
      const auto& clusters = hierarchy.level(k).clusters;
      level_rank[k].resize(clusters.size());
      for (std::size_t c = 0; c < clusters.size(); ++c) {
        std::uint64_t best = ~0ULL;
        for (const std::uint32_t m : clusters[c].members) {
          best = std::min(best, k == 0 ? city_rank[m] : level_rank[k - 1][m]);
        }
        level_rank[k][c] = best;
      }
    }
  }

  // Order the top level's super-clusters into a ring: by warm-tour rank
  // when warm-starting, by the centroid space-filling heuristic otherwise.
  const std::size_t top = hierarchy.depth() - 1;
  std::vector<std::uint32_t> ring;
  if (warm) {
    ring.resize(hierarchy.top().clusters.size());
    for (std::uint32_t c = 0; c < ring.size(); ++c) ring[c] = c;
    std::sort(ring.begin(), ring.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return level_rank[top][a] < level_rank[top][b];
              });
  } else {
    std::vector<geo::Point> top_centroids;
    top_centroids.reserve(hierarchy.top().clusters.size());
    for (const cluster::Cluster& c : hierarchy.top().clusters) {
      top_centroids.push_back(c.centroid);
    }
    ring = order_top_ring(top_centroids);
  }

  // Hierarchical annealing: descend level-by-level. The same physical
  // arrays are rewritten per level, so cell ids restart at 0 while the
  // write-back epoch keeps increasing (temporal decorrelation across
  // levels on the same spatial variation).
  std::uint64_t epoch_base = 0;
  for (std::size_t k = top + 1; k-- > 0;) {
    const std::vector<std::uint64_t>* member_rank = nullptr;
    if (warm) {
      // A level-k slot's members are items one level below: cities at
      // level 0, level-(k-1) clusters above.
      member_rank = k == 0 ? &city_rank : &level_rank[k - 1];
    }
    LevelSolver solver(config_, instance, hierarchy, k, ring, cell_model,
                       schedule, rng, epoch_base, member_rank);
    std::vector<double>* trace =
        (config_.record_trace && k == 0) ? &result.trace : nullptr;
    result.levels.push_back(solver.run(result.hw, trace));
    ring = solver.expanded_ring();
    epoch_base += schedule.epochs();
  }

  std::vector<tsp::CityId> order(ring.begin(), ring.end());
  result.tour = tsp::Tour(std::move(order));
  CIM_ASSERT_MSG(result.tour.is_valid(instance.size()),
                 "annealer produced an invalid tour");
  result.length = result.tour.length(instance);

  if constexpr (telemetry::kEnabled) {
    telemetry::Registry& telem = telemetry::Registry::global();
    telem.counter("anneal.solves").add(1);
    telem.gauge("anneal.last_tour_length")
        .set(static_cast<double>(result.length));
    hw::publish_activity(result.hw, telem);
  }
  return result;
}

}  // namespace cim::anneal
