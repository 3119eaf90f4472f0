#include "anneal/local_fields.hpp"

#include <algorithm>
#include <cmath>

#include "cim/activity.hpp"
#include "util/error.hpp"
#include "util/telemetry.hpp"
#include "util/thread_annotations.hpp"

namespace cim::anneal {

namespace telemetry = util::telemetry;

LocalFields::LocalFields(std::vector<Window> windows,
                         std::span<const ising::Spin> spins, bool memoize)
    : windows_(std::move(windows)), memoize_(memoize) {
  CIM_ASSERT(!windows_.empty());
  std::size_t slots = 0;
  for (const Window& w : windows_) {
    CIM_ASSERT(w.pos->rows() == windows_.front().pos->rows());
    CIM_ASSERT(w.neg->cols() == w.pos->cols());
    offset_.push_back(slots);
    slots += w.pos->cols();
  }
  CIM_ASSERT(spins.size() <= windows_.front().pos->rows());
  sigma_plus_.assign(windows_.front().pos->rows(), 1);
  for (std::size_t v = 0; v < spins.size(); ++v) {
    sigma_plus_[v] = spins[v] > 0 ? 1 : 0;
  }
  if (!memoize_) ones_.assign(sigma_plus_.size(), 1);
  mac_.assign(slots, 0);
  row_sum_.assign(slots, 0);
  stamp_.assign(slots, 0);
}

std::span<std::int64_t> LocalFields::window_span(
    std::vector<std::int64_t>& values, std::size_t window) {
  return {values.data() + offset_[window], windows_[window].pos->cols()};
}

void LocalFields::rebuild() {
  if (!memoize_) {
    for (std::size_t w = 0; w < windows_.size(); ++w) {
      const std::span<std::int64_t> sums = window_span(row_sum_, w);
      for (std::uint32_t c = 0; c < sums.size(); ++c) {
        sums[c] = windows_[w].pos->mac(hw::ColIndex(c), ones_) -
                  windows_[w].neg->mac(hw::ColIndex(c), ones_);
      }
    }
    return;
  }
  // Rows with σ+ = 1 accumulate into mac_, the rest into row_sum_; adding
  // mac_ afterwards completes the all-rows sum.
  std::fill(mac_.begin(), mac_.end(), 0);
  std::fill(row_sum_.begin(), row_sum_.end(), 0);
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    const std::span<std::int64_t> on = window_span(mac_, w);
    const std::span<std::int64_t> off = window_span(row_sum_, w);
    for (std::uint32_t r = 0; r < sigma_plus_.size(); ++r) {
      const std::span<std::int64_t> acc = sigma_plus_[r] ? on : off;
      windows_[w].pos->accumulate_row(hw::RowIndex(r), 1, acc);
      windows_[w].neg->accumulate_row(hw::RowIndex(r), -1, acc);
    }
    windows_[w].pos->charge_repeat_macs(windows_[w].pos->cols());
    windows_[w].neg->charge_repeat_macs(windows_[w].neg->cols());
  }
  for (std::size_t s = 0; s < mac_.size(); ++s) row_sum_[s] += mac_[s];
  ++generation_;
}

std::int64_t LocalFields::field(std::size_t window, std::uint32_t col) {
  const Window& w = windows_[window];
  const std::size_t slot = offset_[window] + col;
  if (!memoize_) {
    return 2 * (w.pos->mac(hw::ColIndex(col), sigma_plus_) -
                w.neg->mac(hw::ColIndex(col), sigma_plus_)) -
           row_sum_[slot];
  }
  w.pos->charge_repeat_macs(1);
  w.neg->charge_repeat_macs(1);
  if (stamp_[slot] == generation_) {
    ++hits_;
  } else {
    stamp_[slot] = generation_;
    ++misses_;
  }
  return 2 * mac_[slot] - row_sum_[slot];
}

void LocalFields::flip(std::uint32_t row, ising::Spin next) {
  sigma_plus_[row] = next > 0 ? 1 : 0;
  if (!memoize_) return;
  const int delta = next > 0 ? 1 : -1;
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    const std::span<std::int64_t> acc = window_span(mac_, w);
    windows_[w].pos->accumulate_row(hw::RowIndex(row), delta, acc);
    windows_[w].neg->accumulate_row(hw::RowIndex(row), -delta, acc);
  }
  ++generation_;
}

SpinSweep::SpinSweep(const IsingAnnealConfig& config)
    : config_(config),
      cell_model_(config.sram, util::hash_combine(config.seed, 0x4C7)),
      rng_(util::hash_combine(config.seed, 0x3C1)) {
  // SRAM spin noise filters the TSP annealer's input register; the spin
  // sweep has no such register to corrupt.
  CIM_REQUIRE(config_.noise != NoiseMode::kSramSpin,
              "the Ising annealers support sram-weight, lfsr and none "
              "noise, not sram-spin");
}

std::unique_ptr<hw::WeightStorage> SpinSweep::make_plane(
    std::uint32_t rows, std::uint32_t cols, std::uint64_t cell_base) const {
  return hw::make_fast_storage(
      rows, cols,
      config_.noise == NoiseMode::kSramWeight ? &cell_model_ : nullptr,
      cell_base, config_.weight_bits);
}

std::vector<ising::Spin> SpinSweep::initial_spins(std::size_t n) {
  if (config_.initial_spins.empty()) return ising::random_spins(n, rng_);
  CIM_REQUIRE(config_.initial_spins.size() == n,
              "initial_spins must have one spin per variable");
  for (const ising::Spin s : config_.initial_spins) {
    CIM_REQUIRE(s == 1 || s == -1, "initial_spins entries must be ±1");
  }
  return config_.initial_spins;
}

CIM_DETERMINISM_ROOT
void SpinSweep::run(const SpinLayout& layout, hw::StorageBatch& batch,
                    SpinSweepResult& result, const SweepHooks& hooks) {
  const noise::AnnealSchedule schedule(config_.schedule);
  LocalFields fields(layout.windows, result.spins,
                     config_.memoize_partial_sums);
  // Rows within each window are written sequentially.
  const std::uint64_t write_back_cycles =
      static_cast<std::uint64_t>(layout.windows.size()) *
      layout.windows.front().pos->rows();
  const double degree_scale =
      std::sqrt(static_cast<double>(layout.max_degree));
  result.sweeps = schedule.total_iterations();
  CIM_ASSERT(result.trace.empty());  // the trace is indexed by sweep

  // Each epoch's sweeps run after its write-back, settled with the
  // schedule's other noisy epochs in one pooled pass (DESIGN.md §11).
  const auto epoch = [&](std::size_t begin, std::size_t end) {
    for (std::size_t sweep = begin; sweep < end; ++sweep) {
      const auto phase = schedule.at(sweep);
      if (phase.write_back) {
        // The epoch's write-back has been committed: refresh the fields.
        result.update_cycles += write_back_cycles;
        fields.rebuild();
      }
      const double lfsr_temperature =
          config_.noise == NoiseMode::kLfsr
              ? equivalent_temperature(cell_model_, phase) * degree_scale
              : 0.0;

      for (const auto& group : layout.groups) {
        for (const ising::SpinIndex v : group) {
          const std::int64_t field =
              fields.field(layout.window_of[v], layout.col_of[v]);
          const ising::Spin spin = result.spins[v];
          // E = −Σ Jσσ − Σ hσ: aligning σ_v with sign(field) descends.
          ising::Spin next = spin;
          if (config_.noise == NoiseMode::kLfsr) {
            // Metropolis on the flip: ΔE = 2 σ_v field.
            const auto delta = static_cast<double>(
                2 * static_cast<std::int64_t>(spin) * field);
            const bool accept =
                delta < 0.0 ||
                (lfsr_temperature > 0.0 &&
                 rng_.uniform() < std::exp(-delta / lfsr_temperature));
            if (accept) next = static_cast<ising::Spin>(-spin);
          } else {
            // kSramWeight (the noise is in the planes) and kNone.
            if (field > 0) next = 1;
            if (field < 0) next = -1;
          }
          if (next != spin) {
            result.spins[v] = next;
            fields.flip(v, next);
            ++result.flips;
          }
        }
        result.update_cycles += layout.group_in_one_cycle ? 1 : group.size();
      }
      if (hooks.after_sweep) hooks.after_sweep();
      if (config_.record_trace) result.trace.push_back(hooks.objective());
    }
  };

  batch.run_epochs(schedule, 0, epoch);
  // The `<prefix>.sweep` instants, in sweep order, from this frame:
  // emitted inside the epoch body, GCC 12 -fanalyzer reports their
  // argument strings as leaked and null-dereferenced.
  if constexpr (telemetry::kEnabled) {
    for (std::size_t sweep = 0; sweep < result.trace.size(); ++sweep) {
      telemetry::Registry::global().instant(
          hooks.prefix + ".sweep",
          {{"sweep", static_cast<double>(sweep)},
           {hooks.objective_key, static_cast<double>(result.trace[sweep])}});
    }
  }

  result.memo_hits = fields.hits();
  result.memo_misses = fields.misses();
  for (const LocalFields::Window& w : layout.windows) {
    result.storage += w.pos->counters();
    result.storage += w.neg->counters();
  }

  if constexpr (telemetry::kEnabled) {
    telemetry::Registry& telem = telemetry::Registry::global();
    telem.counter(hooks.prefix + ".solves").add(1);
    telem.counter(hooks.prefix + ".sweeps").add(result.sweeps);
    telem.counter(hooks.prefix + ".flips").add(result.flips);
    telem.counter(hooks.prefix + ".memo_hits").add(result.memo_hits);
    telem.counter(hooks.prefix + ".memo_misses").add(result.memo_misses);
    telem.counter(hooks.prefix + ".update_cycles").add(result.update_cycles);
    hw::publish_storage(result.storage, telem);
  }
}

}  // namespace cim::anneal
