#include "workloads.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "qubo/io.hpp"
#include "tsp/generator.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace cim::bench::e2e {

namespace {

/// The four synthetic TSPLIB families, cycled by instance index.
tsp::Instance city_instance(std::size_t index, std::size_t n,
                            std::uint64_t seed) {
  switch (index % 4) {
    case 0:
      return tsp::generate_clustered(n, std::max<std::size_t>(n / 150, 4),
                                     seed);
    case 1:
      return tsp::generate_drill_grid(n, seed);
    case 2:
      return tsp::generate_pla(n, seed);
    default:
      return tsp::generate_geographic(n, seed);
  }
}

/// `count` evenly spaced sizes from `lo` to `hi`: a smooth ladder keeps
/// the median call away from a gap between size groups.
std::vector<std::size_t> size_ladder(std::size_t lo, std::size_t hi,
                                     std::size_t count) {
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < count; ++i) {
    sizes.push_back(count == 1 ? lo : lo + (hi - lo) * i / (count - 1));
  }
  return sizes;
}

void add_cities(Workload& w, const std::vector<std::size_t>& sizes,
                std::uint64_t seed) {
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    w.tsp.push_back(
        city_instance(i, sizes[i], util::stream_seed(seed, 100 + i)));
  }
}

/// One call per instance; `passes` = 2 repeats the whole list so every
/// instance is solved once cold and once from its stored tour.
void add_tsp_calls(Workload& w, std::uint64_t seed, int passes) {
  for (int pass = 1; pass <= passes; ++pass) {
    for (std::size_t i = 0; i < w.tsp.size(); ++i) {
      w.calls.push_back({CallKind::kTsp, i,
                         util::stream_seed(seed, 200 + i), pass});
    }
  }
}

/// G-set-style graph, written to and parsed back from GSet text.
MaxCutItem gset_graph(std::size_t n, double density, bool signed_weights,
                      std::uint64_t seed) {
  const ising::MaxCutProblem generated =
      ising::random_maxcut(n, density, seed, 1, signed_weights);
  std::string text = qubo::write_gset(generated);
  std::string name = "G";
  name += std::to_string(n);
  return {qubo::parse_gset(text, name), std::move(text)};
}

/// Spin glass on a random sparse graph with integer couplings in ±[1, 3]
/// and fields in ±[1, 2], written to and parsed back from J/h text.
IsingItem spin_glass(std::size_t n, std::size_t degree, std::uint64_t seed) {
  util::Rng rng(seed);
  ising::GenericModel model("glass" + std::to_string(n), n);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  const std::size_t edges = n * degree / 2;
  while (seen.size() < edges) {
    auto a = static_cast<std::uint32_t>(rng.below(n));
    auto b = static_cast<std::uint32_t>(rng.below(n));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (!seen.insert({a, b}).second) continue;
    const auto j = static_cast<double>(rng.range(1, 3));
    model.add_coupling(a, b, rng.chance(0.5) ? j : -j);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto h = static_cast<double>(rng.range(1, 2));
    model.add_field(i, rng.chance(0.5) ? h : -h);
  }
  std::string text = qubo::write_jh(model);
  return {IsingFamily::kSpinGlass, qubo::parse_jh(text, model.name()),
          std::move(text)};
}

/// Random graph with a planted proper colouring: edges only join
/// vertices of different planted colours, so the instance is colourable.
qubo::ColoringInstance planted_graph(std::size_t vertices,
                                     std::uint32_t colors,
                                     std::size_t edges, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> planted(vertices);
  for (auto& c : planted) c = rng.below(colors);
  std::size_t possible = 0;
  for (std::size_t a = 0; a < vertices; ++a) {
    for (std::size_t b = a + 1; b < vertices; ++b) {
      possible += planted[a] != planted[b] ? 1 : 0;
    }
  }
  edges = std::min(edges, possible);
  std::set<std::pair<ising::SpinIndex, ising::SpinIndex>> chosen;
  while (chosen.size() < edges) {
    auto a = static_cast<ising::SpinIndex>(rng.below(vertices));
    auto b = static_cast<ising::SpinIndex>(rng.below(vertices));
    if (planted[a] == planted[b]) continue;
    if (a > b) std::swap(a, b);
    chosen.insert({a, b});
  }
  return qubo::make_coloring(
      "planted" + std::to_string(vertices) + "x" + std::to_string(colors),
      vertices, colors, {chosen.begin(), chosen.end()});
}

IsingItem coloring_item(IsingFamily family, qubo::ColoringInstance instance) {
  qubo::ColoringEncoding code = qubo::encode_coloring(instance);
  IsingItem item{family, code.model};
  item.coloring = std::move(instance);
  item.coloring_code = std::move(code);
  return item;
}

IsingItem knapsack_item(std::size_t items, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<long long> values;
  std::vector<long long> weights;
  long long total = 0;
  for (std::size_t i = 0; i < items; ++i) {
    values.push_back(rng.range(1, 9));
    weights.push_back(rng.range(1, 6));
    total += weights.back();
  }
  qubo::KnapsackInstance instance = qubo::make_knapsack(
      "knap" + std::to_string(items), std::move(values), std::move(weights),
      std::max<long long>(total / 2, 1));
  qubo::KnapsackEncoding code = qubo::encode_knapsack(instance);
  IsingItem item{IsingFamily::kOracleKnapsack, code.model};
  item.knapsack_best = qubo::brute_force_knapsack(instance);
  item.knapsack = std::move(instance);
  item.knapsack_code = std::move(code);
  return item;
}

Workload tsp_paper(std::uint64_t seed, bool warmup) {
  Workload w;
  w.uses_store = true;
  add_cities(w, warmup ? size_ladder(1000, 1000, 1)
                       : size_ladder(1000, 4000, 12), seed);
  add_tsp_calls(w, seed, 2);
  return w;
}

Workload tsp_p8(std::uint64_t seed, bool warmup) {
  Workload w;
  w.config.p_max = 8;
  w.config.compute_reference = false;
  add_cities(w, warmup ? size_ladder(500, 500, 1)
                       : size_ladder(500, 1500, 12), seed);
  add_tsp_calls(w, seed, 1);
  return w;
}

Workload tsp_large(std::uint64_t seed, bool warmup) {
  Workload w;
  add_cities(w, warmup ? size_ladder(2000, 2000, 1)
                       : size_ladder(12000, 20000, 3), seed);
  add_tsp_calls(w, seed, 1);
  return w;
}

Workload ising_mix(std::uint64_t seed, bool warmup) {
  Workload w;
  w.tail_quantile = 0.8;
  std::uint64_t stream = 300;
  const auto next = [&] { return util::stream_seed(seed, stream++); };
  if (warmup) {
    w.maxcut.push_back(gset_graph(200, 0.05, false, next()));
    w.ising.push_back(spin_glass(200, 6, next()));
  } else {
    w.maxcut.push_back(gset_graph(800, 0.06, false, next()));
    w.maxcut.push_back(gset_graph(1000, 0.01, true, next()));
    w.ising.push_back(spin_glass(800, 6, next()));
    w.ising.push_back(coloring_item(IsingFamily::kPlantedColoring,
                                    planted_graph(120, 3, 240, next())));
    w.ising.push_back(coloring_item(IsingFamily::kPlantedColoring,
                                    planted_graph(160, 4, 320, next())));
    w.ising.push_back(coloring_item(IsingFamily::kOracleColoring,
                                    planted_graph(10, 3, 16, next())));
    w.ising.push_back(knapsack_item(10, next()));
  }
  for (std::size_t i = 0; i < w.maxcut.size(); ++i) {
    w.calls.push_back({CallKind::kMaxCut, i, next(), 1});
  }
  for (std::size_t i = 0; i < w.ising.size(); ++i) {
    w.calls.push_back({CallKind::kIsing, i, next(), 1});
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"tsp-paper", "tsp-p8",
                                                 "tsp-large", "ising-mix"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool warmup) {
  const std::uint64_t base = util::hash_combine(seed, warmup ? 1 : 0);
  Workload w;
  if (name == "tsp-paper") {
    w = tsp_paper(base, warmup);
  } else if (name == "tsp-p8") {
    w = tsp_p8(base, warmup);
  } else if (name == "tsp-large") {
    w = tsp_large(base, warmup);
  } else if (name == "ising-mix") {
    w = ising_mix(base, warmup);
  } else {
    throw ConfigError("unknown workload '" + name + "'");
  }
  w.name = name;
  return w;
}

}  // namespace cim::bench::e2e
