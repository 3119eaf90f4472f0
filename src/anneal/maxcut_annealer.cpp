#include "anneal/maxcut_annealer.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
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
  SpinSweep core(config_);

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
  // couplings into spin v. Each host image is built, written and dropped
  // before the next, so at most one n×n image is alive beside the
  // storages.
  const auto rows = static_cast<std::uint32_t>(n);
  const auto plane_image = [&](bool positive) {
    std::vector<std::uint8_t> plane(static_cast<std::size_t>(n) * n, 0);
    for (const auto& e : problem.edges()) {
      if ((e.w >= 0) != positive) continue;
      const std::uint8_t q = quantise(e.w);
      plane[static_cast<std::size_t>(e.a) * n + e.b] = q;
      plane[static_cast<std::size_t>(e.b) * n + e.a] = q;
    }
    return plane;
  };
  const std::uint64_t plane_cells =
      static_cast<std::uint64_t>(n) * n * config_.weight_bits;
  auto pos_storage = core.make_plane(rows, rows, 0);
  auto neg_storage = core.make_plane(rows, rows, plane_cells);
  // Each write is a one-storage batch, split into pooled tasks like the
  // write-backs of both planes below (DESIGN.md §11).
  hw::StorageBatch({pos_storage.get()}).write(plane_image(true));
  hw::StorageBatch({neg_storage.get()}).write(plane_image(false));
  hw::StorageBatch planes({pos_storage.get(), neg_storage.get()});

  // Chromatic classes for parallel updates, as per-colour vertex lists in
  // ascending vertex order (the update order within a colour).
  const auto colors = problem.to_ising().chromatic_partition();
  std::uint32_t color_count = 0;
  for (const auto c : colors) color_count = std::max(color_count, c + 1);
  std::vector<std::vector<ising::SpinIndex>> color_members(color_count);
  for (std::uint32_t v = 0; v < n; ++v) color_members[colors[v]].push_back(v);

  // One window whose column v is vertex v. J = −w: the w < 0 plane is the
  // core's pos plane.
  SpinLayout layout;
  layout.windows = {{neg_storage.get(), pos_storage.get()}};
  layout.window_of.assign(n, 0);
  layout.col_of.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) layout.col_of[v] = v;
  layout.groups = color_members;
  layout.group_in_one_cycle = true;
  layout.max_degree = problem.max_degree();

  MaxCutResult result;
  result.color_count = color_count;
  result.spins = core.initial_spins(n);
  result.best_cut = problem.cut_value(result.spins);
  core.run(layout, planes, result,
           {"maxcut", "cut", {},
            [&] { return problem.cut_value(result.spins); }});
  result.cut = problem.cut_value(result.spins);
  for (const long long cut : result.trace) {
    result.best_cut = std::max(result.best_cut, cut);
  }
  result.best_cut = std::max(result.best_cut, result.cut);

  if constexpr (telemetry::kEnabled) {
    telemetry::Registry::global()
        .gauge("maxcut.last_best_cut")
        .set(static_cast<double>(result.best_cut));
  }
  return result;
}

}  // namespace cim::anneal
