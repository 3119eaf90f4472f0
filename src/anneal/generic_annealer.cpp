#include "anneal/generic_annealer.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/telemetry.hpp"
#include "util/thread_annotations.hpp"

namespace cim::anneal {

namespace telemetry = util::telemetry;

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
  SpinSweep core(config_);

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
  SpinLayout layout;
  layout.window_of.assign(n, 0);
  layout.col_of.assign(n, 0);
  for (std::size_t g = 0; g < partition.groups.size(); ++g) {
    for (std::size_t p = 0; p < partition.groups[g].size(); ++p) {
      const ising::SpinIndex v = partition.groups[g][p];
      layout.window_of[v] = static_cast<std::uint32_t>(g);
      layout.col_of[v] = static_cast<std::uint32_t>(p);
    }
  }
  layout.groups = partition.groups;
  layout.group_in_one_cycle = partition.parallel_safe;
  layout.max_degree = std::max<std::uint32_t>(1, model.max_degree());

  // One batch writes and writes back every plane (DESIGN.md §11); its
  // image holds each group's pos then neg plane, back to back.
  std::vector<std::unique_ptr<hw::WeightStorage>> planes;
  planes.reserve(2 * partition.groups.size());
  std::vector<std::size_t> pos_offset(partition.groups.size(), 0);
  std::uint64_t cell_base = 0;
  std::size_t offset = 0;
  for (std::size_t g = 0; g < partition.groups.size(); ++g) {
    const auto cols = static_cast<std::uint32_t>(partition.groups[g].size());
    const std::uint64_t plane_cells =
        static_cast<std::uint64_t>(rows) * cols * config_.weight_bits;
    planes.push_back(core.make_plane(rows, cols, cell_base));
    planes.push_back(core.make_plane(rows, cols, cell_base + plane_cells));
    cell_base += 2 * plane_cells;
    layout.windows.push_back({planes[2 * g].get(), planes[2 * g + 1].get()});
    pos_offset[g] = offset;
    offset += 2 * static_cast<std::size_t>(rows) * cols;
  }
  std::vector<hw::WeightStorage*> storages;
  storages.reserve(planes.size());
  for (const auto& plane : planes) storages.push_back(plane.get());
  hw::StorageBatch batch(storages);
  // Plane images: fields into the bias row of each member's column, then
  // couplings scattered so W_uv lands in row u of spin v's column (both
  // directions).
  {
    std::vector<std::uint8_t> images(batch.weights(), 0);
    // Weight (row, spin v's column) of the pos or neg plane of v's group.
    const auto at = [&](bool positive, std::size_t row,
                        ising::SpinIndex v) -> std::uint8_t& {
      const std::size_t g = layout.window_of[v];
      const std::size_t cols = partition.groups[g].size();
      return images[pos_offset[g] + (positive ? 0 : rows * cols) +
                    row * cols + layout.col_of[v]];
    };
    if (mapping.has_fields) {
      for (ising::SpinIndex v = 0; v < n; ++v) {
        if (mapping.fields[v] != 0) {
          at(mapping.fields[v] > 0, n, v) = quantise(mapping.fields[v]);
        }
      }
    }
    for (const ising::HardwareMapping::Term& t : mapping.couplings) {
      const std::uint8_t q = quantise(t.w);
      at(t.w > 0, t.a, t.b) = q;
      at(t.w > 0, t.b, t.a) = q;
    }
    batch.write(images);
  }

  GenericResult result;
  result.group_count = partition.size();
  result.max_group = partition.max_group();
  result.parallel_groups = partition.parallel_safe;
  result.exact_mapping = exact;
  result.spins = core.initial_spins(n);
  result.energy_hw = mapping.energy_hw(result.spins);
  result.best_energy_hw = result.energy_hw;
  result.best_spins = result.spins;
  const auto track_best = [&] {
    result.energy_hw = mapping.energy_hw(result.spins);
    if (result.energy_hw < result.best_energy_hw) {
      result.best_energy_hw = result.energy_hw;
      result.best_spins = result.spins;
    }
  };
  core.run(layout, batch, result,
           {"generic", "energy_hw", track_best,
            [&] { return result.energy_hw; }});
  result.energy = mapping.to_model_energy(result.energy_hw, model.offset());
  result.best_energy =
      mapping.to_model_energy(result.best_energy_hw, model.offset());

  if constexpr (telemetry::kEnabled) {
    telemetry::Registry::global()
        .gauge("generic.last_best_energy_hw")
        .set(static_cast<double>(result.best_energy_hw));
  }
  return result;
}

}  // namespace cim::anneal
