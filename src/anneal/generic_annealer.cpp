#include "anneal/generic_annealer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "anneal/local_fields.hpp"
#include "cim/activity.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "util/telemetry.hpp"
#include "util/thread_annotations.hpp"

namespace cim::anneal {

namespace telemetry = util::telemetry;

namespace {

/// One partition group's weight window: the column block holding the
/// couplings (and bias row) of its member spins, as a pos/neg magnitude
/// plane pair.
struct Window {
  std::unique_ptr<hw::WeightStorage> pos;
  std::unique_ptr<hw::WeightStorage> neg;
};

}  // namespace

GenericAnnealer::GenericAnnealer(GenericAnnealConfig config)
    : config_(std::move(config)) {
  CIM_REQUIRE(config_.weight_bits >= 1 && config_.weight_bits <= 8,
              "weight precision must be 1..8 bits");
  CIM_REQUIRE(config_.group_block >= 1, "group block width must be >= 1");
}

CIM_DETERMINISM_ROOT
GenericResult GenericAnnealer::solve(const ising::GenericModel& model) const {
  const telemetry::Scope solve_scope(
      telemetry::Registry::global(), "generic.solve",
      {{"spins", static_cast<double>(model.size())},
       {"seed", static_cast<double>(config_.seed)}});
  const std::size_t n = model.size();
  const ising::HardwareMapping mapping = ising::map_to_hardware(model);
  const ising::Partition partition =
      ising::build_partition(model, config_.strategy, config_.group_block);
  const noise::AnnealSchedule schedule(config_.schedule);
  const noise::SramCellModel cell_model(
      config_.sram, util::hash_combine(config_.seed, 0x4C7));
  util::Rng rng(util::hash_combine(config_.seed, 0x3C1));

  // Scale the coefficient magnitudes down to the weight precision when
  // they do not fit; never scale up, so integer-coefficient families stay
  // exact (exact_mapping). Reported energies always use the unquantised
  // mapping, so only the *dynamics* see quantisation loss.
  const auto max_q =
      static_cast<std::int32_t>((1U << config_.weight_bits) - 1U);
  const bool exact = mapping.exact_in_bits(config_.weight_bits);
  const double scale =
      exact ? 1.0
            : static_cast<double>(max_q) / static_cast<double>(mapping.max_abs);
  const auto quantise = [&](std::int32_t w) {
    return static_cast<std::uint8_t>(
        std::clamp(std::round(std::abs(w) * scale), 0.0,
                   static_cast<double>(max_q)));
  };

  // Windows: one pos/neg plane pair per partition group. Rows 0..n−1 are
  // the spins; when the model has fields an extra always-on bias row n
  // carries |h_v|. Column p of group g belongs to spin groups[g][p].
  const auto rows =
      static_cast<std::uint32_t>(mapping.has_fields ? n + 1 : n);
  std::vector<std::size_t> group_of(n, 0);  // spin -> group
  std::vector<std::uint32_t> col_of(n, 0);  // spin -> column in its group
  for (std::size_t g = 0; g < partition.groups.size(); ++g) {
    for (std::size_t p = 0; p < partition.groups[g].size(); ++p) {
      const ising::SpinIndex v = partition.groups[g][p];
      group_of[v] = g;
      col_of[v] = static_cast<std::uint32_t>(p);
    }
  }

  const noise::SramCellModel* weight_model =
      config_.noise == NoiseMode::kSramWeight ? &cell_model : nullptr;
  std::vector<Window> windows;
  windows.reserve(partition.groups.size());
  std::uint64_t cell_base = 0;
  for (const auto& group : partition.groups) {
    const auto cols = static_cast<std::uint32_t>(group.size());
    Window window;
    const std::uint64_t plane_cells =
        static_cast<std::uint64_t>(rows) * cols * config_.weight_bits;
    window.pos = hw::make_fast_storage(rows, cols, weight_model, cell_base,
                                       config_.weight_bits);
    window.neg = hw::make_fast_storage(rows, cols, weight_model,
                                       cell_base + plane_cells,
                                       config_.weight_bits);
    cell_base += 2 * plane_cells;
    windows.push_back(std::move(window));
  }
  // Plane images: fields into the bias row of each member's column, then
  // couplings scattered so W_uv lands in row u of spin v's column (both
  // directions); install per group.
  {
    std::vector<std::vector<std::uint8_t>> pos_planes(windows.size());
    std::vector<std::vector<std::uint8_t>> neg_planes(windows.size());
    for (std::size_t g = 0; g < windows.size(); ++g) {
      const std::size_t cols = partition.groups[g].size();
      pos_planes[g].assign(static_cast<std::size_t>(rows) * cols, 0);
      neg_planes[g].assign(static_cast<std::size_t>(rows) * cols, 0);
      for (std::uint32_t p = 0; p < cols; ++p) {
        const ising::SpinIndex v = partition.groups[g][p];
        if (mapping.has_fields && mapping.fields[v] != 0) {
          auto& plane = mapping.fields[v] > 0 ? pos_planes[g] : neg_planes[g];
          plane[static_cast<std::size_t>(n) * cols + p] =
              quantise(mapping.fields[v]);
        }
      }
    }
    for (const ising::HardwareMapping::Term& t : mapping.couplings) {
      const std::uint8_t q = quantise(t.w);
      auto& plane_a = t.w > 0 ? pos_planes : neg_planes;
      plane_a[group_of[t.b]][static_cast<std::size_t>(t.a) *
                                 partition.groups[group_of[t.b]].size() +
                             col_of[t.b]] = q;
      plane_a[group_of[t.a]][static_cast<std::size_t>(t.b) *
                                 partition.groups[group_of[t.a]].size() +
                             col_of[t.a]] = q;
    }
    for (std::size_t g = 0; g < windows.size(); ++g) {
      windows[g].pos->write(pos_planes[g]);
      windows[g].neg->write(neg_planes[g]);
    }
  }

  GenericResult result;
  result.group_count = partition.size();
  result.max_group = partition.max_group();
  result.parallel_groups = partition.parallel_safe;
  result.exact_mapping = exact;
  result.sweeps = schedule.total_iterations();
  if (!config_.initial_spins.empty()) {
    CIM_REQUIRE(config_.initial_spins.size() == n,
                "initial_spins must have one spin per variable");
    for (const ising::Spin s : config_.initial_spins) {
      CIM_REQUIRE(s == 1 || s == -1, "initial_spins entries must be ±1");
    }
    result.spins = config_.initial_spins;
  } else {
    result.spins = ising::random_spins(n, rng);
  }

  // Input register σ+, with the bias row (if any) permanently 1.
  std::vector<std::uint8_t> sigma_plus(rows, 1);
  for (std::uint32_t v = 0; v < n; ++v) {
    sigma_plus[v] = result.spins[v] > 0 ? 1 : 0;
  }

  // Memoized fields (DESIGN.md §16) are kept exact incrementally, the
  // same helper as the Max-Cut path, over all windows at once; the
  // recompute path re-reduces both columns per update and is the oracle.
  std::optional<LocalFields> fields;
  if (config_.memoize_partial_sums) {
    std::vector<LocalFields::Window> planes;
    planes.reserve(windows.size());
    for (Window& w : windows) planes.push_back({w.pos.get(), w.neg.get()});
    fields.emplace(std::move(planes));
  }
  const bool packed = config_.vector_kernel && !fields;
  const std::vector<std::uint8_t> ones(rows, 1);
  std::vector<std::int64_t> row_sum(n, 0);

  hw::PackedBits sigma_packed;
  hw::PackedBits ones_packed;
  if (packed) {
    sigma_packed.resize(rows);
    ones_packed.resize(rows);
    for (std::uint32_t r = 0; r < rows; ++r) {
      ones_packed.set(r);
      if (sigma_plus[r]) sigma_packed.set(r);
    }
  }

  const auto window_mac = [&](ising::SpinIndex v,
                              std::span<const std::uint8_t> dense,
                              std::span<const std::uint64_t> words) {
    Window& w = windows[group_of[v]];
    const hw::ColIndex col(col_of[v]);
    return packed ? w.pos->mac_packed(col, words) -
                        w.neg->mac_packed(col, words)
                  : w.pos->mac(col, dense) - w.neg->mac(col, dense);
  };

  const auto refresh_row_sums = [&] {
    if (fields) {
      fields->rebuild(sigma_plus);
      return;
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      row_sum[v] = window_mac(v, ones, ones_packed.words());
    }
  };
  refresh_row_sums();

  result.energy_hw = mapping.energy_hw(result.spins);
  result.best_energy_hw = result.energy_hw;
  result.best_spins = result.spins;
  const double degree_scale = std::sqrt(
      static_cast<double>(std::max<std::uint32_t>(1, model.max_degree())));

  for (std::size_t sweep = 0; sweep < schedule.total_iterations(); ++sweep) {
    const auto phase = schedule.at(sweep);
    if (phase.write_back) {
      for (Window& w : windows) {
        w.pos->write_back(phase);
        w.neg->write_back(phase);
        result.update_cycles += rows;  // sequential row write per window
      }
      refresh_row_sums();
    }
    const double lfsr_temperature =
        config_.noise == NoiseMode::kLfsr
            ? equivalent_temperature(cell_model, phase) * degree_scale
            : 0.0;

    for (std::size_t g = 0; g < partition.groups.size(); ++g) {
      for (const ising::SpinIndex v : partition.groups[g]) {
        // field_v = Σ_u W_uv σ_u + F_v = 2·(MAC+ − MAC−)(σ+) − row_sum.
        const std::int64_t field =
            fields ? fields->field(g, col_of[v])
                   : 2 * window_mac(v, sigma_plus, sigma_packed.words()) -
                         row_sum[v];

        // E = −Σ Wσσ − Σ Fσ: aligning σ_v with sign(field) descends.
        ising::Spin next = result.spins[v];
        switch (config_.noise) {
          case NoiseMode::kSramWeight:
          case NoiseMode::kSramSpin:  // spin noise degenerates to weight-free
          case NoiseMode::kNone:
            if (field > 0) next = 1;
            if (field < 0) next = -1;
            break;
          case NoiseMode::kLfsr: {
            // Metropolis on the flip: ΔE = 2 σ_v field.
            const auto delta = static_cast<double>(
                2 * static_cast<std::int64_t>(result.spins[v]) * field);
            const bool accept =
                delta < 0.0 ||
                (lfsr_temperature > 0.0 &&
                 rng.uniform() < std::exp(-delta / lfsr_temperature));
            if (accept) next = static_cast<ising::Spin>(-result.spins[v]);
            break;
          }
        }
        if (next != result.spins[v]) {
          result.spins[v] = next;
          sigma_plus[v] = next > 0 ? 1 : 0;
          if (fields) fields->flip(v, next > 0 ? 1 : -1);
          if (packed) {
            if (sigma_plus[v]) {
              sigma_packed.set(v);
            } else {
              sigma_packed.clear(v);
            }
          }
          ++result.flips;
        }
      }
      // Chromatic groups are independent sets: one cycle updates the
      // whole window. Other strategies update members sequentially.
      result.update_cycles +=
          partition.parallel_safe ? 1 : partition.groups[g].size();
    }

    result.energy_hw = mapping.energy_hw(result.spins);
    if (result.energy_hw < result.best_energy_hw) {
      result.best_energy_hw = result.energy_hw;
      result.best_spins = result.spins;
    }
    if (config_.record_trace) {
      result.trace.push_back(result.energy_hw);
      if constexpr (telemetry::kEnabled) {
        telemetry::Registry::global().instant(
            "generic.sweep",
            {{"sweep", static_cast<double>(sweep)},
             {"energy_hw", static_cast<double>(result.energy_hw)}});
      }
    }
  }

  result.energy = mapping.to_model_energy(result.energy_hw, model.offset());
  result.best_energy =
      mapping.to_model_energy(result.best_energy_hw, model.offset());
  if (fields) {
    result.memo_hits = fields->hits();
    result.memo_misses = fields->misses();
  }
  for (Window& w : windows) {
    result.storage += w.pos->counters();
    result.storage += w.neg->counters();
  }

  if constexpr (telemetry::kEnabled) {
    telemetry::Registry& telem = telemetry::Registry::global();
    telem.counter("generic.solves").add(1);
    telem.counter("generic.sweeps").add(result.sweeps);
    telem.counter("generic.flips").add(result.flips);
    telem.counter("generic.memo_hits").add(result.memo_hits);
    telem.counter("generic.memo_misses").add(result.memo_misses);
    telem.counter("generic.update_cycles").add(result.update_cycles);
    telem.gauge("generic.last_best_energy_hw")
        .set(static_cast<double>(result.best_energy_hw));
    hw::publish_storage(result.storage, telem);
  }
  return result;
}

}  // namespace cim::anneal
