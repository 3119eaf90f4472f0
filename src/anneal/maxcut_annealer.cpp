#include "anneal/maxcut_annealer.hpp"

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

MaxCutAnnealer::MaxCutAnnealer(MaxCutConfig config)
    : config_(std::move(config)) {
  CIM_REQUIRE(config_.weight_bits >= 1 && config_.weight_bits <= 8,
              "weight precision must be 1..8 bits");
}

CIM_DETERMINISM_ROOT
MaxCutResult MaxCutAnnealer::solve(
    const ising::MaxCutProblem& problem) const {
  const telemetry::Scope solve_scope(
      telemetry::Registry::global(), "maxcut.solve",
      {{"vertices", static_cast<double>(problem.size())},
       {"seed", static_cast<double>(config_.seed)}});
  const std::size_t n = problem.size();
  CIM_REQUIRE(n >= 1, "MaxCut problem needs at least one vertex");
  const noise::AnnealSchedule schedule(config_.schedule);
  const noise::SramCellModel cell_model(
      config_.sram, util::hash_combine(config_.seed, 0x4C7));
  util::Rng rng(util::hash_combine(config_.seed, 0x3C1));

  // Quantise |w| to the weight precision.
  std::int32_t w_abs_max = 1;
  for (const auto& e : problem.edges()) {
    w_abs_max = std::max(w_abs_max, std::abs(e.w));
  }
  const double scale =
      static_cast<double>((1U << config_.weight_bits) - 1U) /
      static_cast<double>(w_abs_max);
  const auto quantise = [&](std::int32_t w) {
    return static_cast<std::uint8_t>(
        std::clamp(std::round(std::abs(w) * scale), 0.0,
                   static_cast<double>((1U << config_.weight_bits) - 1U)));
  };

  // Weight planes: positive and negative magnitudes, n×n, column v =
  // couplings into spin v.
  const auto rows = static_cast<std::uint32_t>(n);
  const auto cols = static_cast<std::uint32_t>(n);
  std::vector<std::uint8_t> pos(static_cast<std::size_t>(n) * n, 0);
  std::vector<std::uint8_t> neg(static_cast<std::size_t>(n) * n, 0);
  for (const auto& e : problem.edges()) {
    auto& plane = e.w >= 0 ? pos : neg;
    const std::uint8_t q = quantise(e.w);
    plane[static_cast<std::size_t>(e.a) * n + e.b] = q;
    plane[static_cast<std::size_t>(e.b) * n + e.a] = q;
  }
  const noise::SramCellModel* weight_model =
      config_.noise == NoiseMode::kSramWeight ? &cell_model : nullptr;
  const std::uint64_t plane_cells =
      static_cast<std::uint64_t>(n) * n * config_.weight_bits;
  auto pos_storage = hw::make_fast_storage(rows, cols, weight_model, 0,
                                           config_.weight_bits);
  auto neg_storage = hw::make_fast_storage(rows, cols, weight_model,
                                           plane_cells, config_.weight_bits);
  pos_storage->write(pos);
  neg_storage->write(neg);

  // Chromatic classes for parallel updates, as per-colour vertex lists in
  // ascending vertex order (the update order within a colour).
  const ising::IsingModel graph = problem.to_ising();
  const auto colors = graph.chromatic_partition();
  std::uint32_t color_count = 0;
  for (const auto c : colors) color_count = std::max(color_count, c + 1);
  std::vector<std::vector<std::uint32_t>> color_members(color_count);
  for (std::uint32_t v = 0; v < n; ++v) color_members[colors[v]].push_back(v);

  MaxCutResult result;
  result.color_count = color_count;
  result.sweeps = schedule.total_iterations();
  if (!config_.initial_spins.empty()) {
    CIM_REQUIRE(config_.initial_spins.size() == n,
                "initial_spins must have one spin per vertex");
    for (const ising::Spin s : config_.initial_spins) {
      CIM_REQUIRE(s == 1 || s == -1, "initial_spins entries must be ±1");
    }
    result.spins = config_.initial_spins;
  } else {
    result.spins = ising::random_spins(n, rng);
  }

  std::vector<std::uint8_t> sigma_plus(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    sigma_plus[v] = result.spins[v] > 0 ? 1 : 0;
  }

  // Memoized fields (DESIGN.md §16) are kept exact incrementally; the
  // recompute path below re-reduces both columns on every update and is
  // the oracle.
  std::optional<LocalFields> fields;
  if (config_.memoize_partial_sums) {
    fields.emplace(std::vector<LocalFields::Window>{
        {pos_storage.get(), neg_storage.get()}});
  }
  const std::vector<std::uint8_t> ones(n, 1);
  std::vector<std::int64_t> row_sum(n, 0);

  const auto column_mac = [&](std::uint32_t v,
                              std::span<const std::uint8_t> input) {
    return pos_storage->mac(hw::ColIndex(v), input) -
           neg_storage->mac(hw::ColIndex(v), input);
  };

  result.best_cut = problem.cut_value(result.spins);
  const double degree_scale =
      std::sqrt(static_cast<double>(problem.max_degree()));

  for (std::size_t sweep = 0; sweep < schedule.total_iterations(); ++sweep) {
    const auto phase = schedule.at(sweep);
    if (phase.write_back) {
      pos_storage->write_back(phase);
      neg_storage->write_back(phase);
      if (fields) {
        fields->rebuild(sigma_plus);
      } else {
        // One all-ones MAC per column per plane; static between
        // write-backs.
        for (std::uint32_t v = 0; v < n; ++v) {
          row_sum[v] = column_mac(v, ones);
        }
      }
      result.update_cycles += rows;  // sequential row write
    }
    const double lfsr_temperature =
        config_.noise == NoiseMode::kLfsr
            ? equivalent_temperature(cell_model, phase) * degree_scale
            : 0.0;

    for (const auto& members : color_members) {
      for (const std::uint32_t v : members) {
        // field_v = Σ_j w_vj σ_j = 2·(MAC+ − MAC−)(σ+) − row_sum.
        const std::int64_t field =
            fields ? fields->field(0, v)
                   : 2 * column_mac(v, sigma_plus) - row_sum[v];

        ising::Spin next = result.spins[v];
        switch (config_.noise) {
          case NoiseMode::kSramWeight:
          case NoiseMode::kSramSpin:  // spin noise degenerates to weight-free
          case NoiseMode::kNone:
            if (field > 0) next = -1;
            if (field < 0) next = 1;
            break;
          case NoiseMode::kLfsr: {
            // Metropolis on the flip: ΔH = −2 σ_v field.
            const auto delta = static_cast<double>(
                -2 * static_cast<std::int64_t>(result.spins[v]) * field);
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
          ++result.flips;
        }
      }
      ++result.update_cycles;  // all spins of a colour in one cycle
    }

    if (config_.record_trace) {
      result.trace.push_back(problem.cut_value(result.spins));
      result.best_cut = std::max(result.best_cut, result.trace.back());
      if constexpr (telemetry::kEnabled) {
        telemetry::Registry::global().instant(
            "maxcut.sweep",
            {{"sweep", static_cast<double>(sweep)},
             {"cut", static_cast<double>(result.trace.back())}});
      }
    }
  }

  result.cut = problem.cut_value(result.spins);
  result.best_cut = std::max(result.best_cut, result.cut);
  if (fields) {
    result.memo_hits = fields->hits();
    result.memo_misses = fields->misses();
  }
  result.storage += pos_storage->counters();
  result.storage += neg_storage->counters();

  if constexpr (telemetry::kEnabled) {
    telemetry::Registry& telem = telemetry::Registry::global();
    telem.counter("maxcut.solves").add(1);
    telem.counter("maxcut.sweeps").add(result.sweeps);
    telem.counter("maxcut.flips").add(result.flips);
    telem.counter("maxcut.memo_hits").add(result.memo_hits);
    telem.counter("maxcut.memo_misses").add(result.memo_misses);
    telem.counter("maxcut.update_cycles").add(result.update_cycles);
    telem.gauge("maxcut.last_best_cut")
        .set(static_cast<double>(result.best_cut));
    hw::publish_storage(result.storage, telem);
  }
  return result;
}

}  // namespace cim::anneal
