// Extension bench: the generic QUBO/Ising front-end on the noisy
// digital-CIM substrate. One quality/speed row per problem family —
// Max-Cut from GSet files (through the strict parser), penalty-encoded
// graph colouring and 0/1 knapsack — swept over the clustering-strategy
// hook (chromatic windows vs index blocks). Every instance is also run
// with the partial-sum memo on and off, and the row records whether the
// two were bit-identical (energies, spins, flips, StorageCounters). The
// report sums oracle rows, hits and gaps per family for the CI gate.
//
// Writes BENCH_ext_qubo.json (CIMANNEAL_BENCH_OUT_QUBO overrides the
// path; CIMANNEAL_BENCH_SMOKE=1 shrinks seeds/sweeps for CI). Oracles:
// brute-force maximum cut / colourability / best knapsack value on the
// small instances, best-of-8 greedy on the generated graph.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "anneal/generic_annealer.hpp"
#include "bench_common.hpp"
#include "ising/generic.hpp"
#include "ising/maxcut.hpp"
#include "qubo/coloring.hpp"
#include "qubo/io.hpp"
#include "qubo/knapsack.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using cim::util::Json;
using cim::util::Table;

struct Workload {
  std::string family;      ///< "maxcut" | "coloring" | "knapsack"
  std::string instance;
  cim::ising::GenericModel model;
  bool oracle_known = false;
  double oracle_energy = 0.0;  ///< model-unit optimum when known
  std::string note;            ///< oracle provenance for the table
  long long maxcut_total = 0;  ///< total edge weight (maxcut rows only)
};

cim::anneal::GenericAnnealConfig base_config(bool smoke) {
  cim::anneal::GenericAnnealConfig config;
  config.schedule.total_iterations = smoke ? 150 : 400;
  config.schedule.iterations_per_step = 25;
  return config;
}

/// The memoized and recompute field paths at seed 1 must agree
/// bit-for-bit.
bool variants_agree(const cim::ising::GenericModel& model, bool smoke) {
  auto config = base_config(smoke);
  config.seed = 1;
  config.memoize_partial_sums = false;
  const auto recompute = cim::anneal::GenericAnnealer(config).solve(model);
  config.memoize_partial_sums = true;
  const auto memo = cim::anneal::GenericAnnealer(config).solve(model);
  return memo.spins == recompute.spins &&
         memo.best_spins == recompute.best_spins &&
         memo.energy_hw == recompute.energy_hw &&
         memo.best_energy_hw == recompute.best_energy_hw &&
         memo.flips == recompute.flips &&
         memo.update_cycles == recompute.update_cycles &&
         memo.storage == recompute.storage;
}

}  // namespace

int main() {
  try {
    const bool smoke = cim::util::Args::env_flag("CIMANNEAL_BENCH_SMOKE");
    const char* out_env = std::getenv("CIMANNEAL_BENCH_OUT_QUBO");
    const std::string out_path =
        out_env != nullptr ? out_env : "BENCH_ext_qubo.json";
    const std::string fixtures = QUBO_FIXTURE_DIR;
    cim::bench::print_header(
        "Extension — generic QUBO/Ising front-end",
        "DESIGN.md §17: GSet/J-h loaders + penalty families on the "
        "clustered-window machinery");

    std::vector<Workload> workloads;

    // Max-Cut family: the fixture GSet files go through the strict
    // parser; optima are exhaustive. One generated graph uses best-of-8
    // greedy as the reference instead.
    for (const char* file : {"ring8.gset", "petersen.gset", "signed5.gset"}) {
      auto problem = cim::qubo::load_gset_file(fixtures + "/" + file);
      const long long optimum = cim::ising::brute_force_maxcut(problem);
      const long long total = problem.total_weight();
      Workload w{"maxcut", file,
                 cim::ising::GenericModel::from_maxcut(problem), true,
                 static_cast<double>(total - 2 * optimum),
                 "opt cut " + std::to_string(optimum) + " (exhaustive)",
                 total};
      workloads.push_back(std::move(w));
    }
    {
      const auto problem = cim::ising::random_maxcut(128, 0.05, 7, 3);
      long long greedy = 0;
      for (std::uint64_t restart = 0; restart < 8; ++restart) {
        greedy = std::max(greedy,
                          cim::ising::greedy_maxcut(problem, restart));
      }
      Workload w{"maxcut", "G(128,5%)",
                 cim::ising::GenericModel::from_maxcut(problem), false, 0.0,
                 "greedy x8 cut " + std::to_string(greedy),
                 problem.total_weight()};
      workloads.push_back(std::move(w));
    }

    // Colouring family: both instances are colourable, so the penalty
    // optimum is exactly 0 (exhaustive via brute_force_colorable).
    for (auto& instance :
         {cim::qubo::ring_coloring(10, 2), cim::qubo::petersen_coloring(3)}) {
      const bool colorable = cim::qubo::brute_force_colorable(instance);
      auto encoding = cim::qubo::encode_coloring(instance);
      Workload w{"coloring", instance.name, std::move(encoding.model),
                 colorable, 0.0,
                 colorable ? "feasible at energy 0" : "not colourable"};
      workloads.push_back(std::move(w));
    }

    // Knapsack family: optimum energy is −(best value), exhaustive.
    for (auto& instance :
         {cim::qubo::make_knapsack("knap4", {6, 5, 4, 3}, {3, 2, 2, 1}, 5),
          cim::qubo::make_knapsack("knap6", {7, 2, 5, 4, 3, 6},
                                   {4, 1, 3, 2, 2, 5}, 7)}) {
      const long long oracle = cim::qubo::brute_force_knapsack(instance);
      auto encoding = cim::qubo::encode_knapsack(instance);
      Workload w{"knapsack", instance.name, std::move(encoding.model), true,
                 -static_cast<double>(oracle),
                 "opt value " + std::to_string(oracle) + " (exhaustive)"};
      workloads.push_back(std::move(w));
    }

    const struct {
      cim::ising::GroupStrategy strategy;
      std::uint32_t block;
    } strategies[] = {
        {cim::ising::GroupStrategy::kChromatic, 64},
        {cim::ising::GroupStrategy::kIndexBlocks, 16},
    };

    Table table({"family", "instance", "spins", "strategy", "best energy",
                 "oracle", "gap", "equiv", "hw cycles", "time"});
    Json rows = Json::array();
    bool all_equivalent = true;
    struct FamilyScore {
      long long oracle_rows = 0;
      long long oracle_hits = 0;
      double gap_sum = 0.0;
    };
    std::map<std::string, FamilyScore> scores;
    const std::uint64_t seed_count = smoke ? 2 : 6;

    for (const auto& workload : workloads) {
      const bool equivalent = variants_agree(workload.model, smoke);
      all_equivalent = all_equivalent && equivalent;
      for (const auto& axis : strategies) {
        auto config = base_config(smoke);
        config.strategy = axis.strategy;
        config.group_block = axis.block;
        cim::util::Timer timer;
        double best = 0.0;
        bool have_best = false;
        std::uint64_t cycles = 0;
        std::size_t flips = 0;
        bool exact = false;
        bool parallel = false;
        for (std::uint64_t seed = 1; seed <= seed_count; ++seed) {
          config.seed = seed;
          const auto result =
              cim::anneal::GenericAnnealer(config).solve(workload.model);
          if (!have_best || result.best_energy < best) {
            best = result.best_energy;
          }
          have_best = true;
          cycles += result.update_cycles;
          flips += result.flips;
          exact = result.exact_mapping;
          parallel = result.parallel_groups;
        }
        const double seconds = timer.seconds();
        const double gap =
            workload.oracle_known ? best - workload.oracle_energy : 0.0;

        const char* strategy_name =
            cim::ising::group_strategy_name(axis.strategy);
        table.add_row(
            {workload.family, workload.instance,
             Table::integer(static_cast<long long>(workload.model.size())),
             strategy_name, Table::num(best, 1),
             workload.oracle_known ? Table::num(workload.oracle_energy, 1)
                                   : workload.note,
             workload.oracle_known ? Table::num(gap, 1) : "n/a",
             equivalent ? "yes" : "NO",
             Table::sci(static_cast<double>(cycles), 2),
             Table::num(seconds, 3) + "s"});

        Json row = Json::object();
        row["family"] = workload.family;
        row["instance"] = workload.instance;
        row["spins"] = static_cast<long long>(workload.model.size());
        row["strategy"] = strategy_name;
        row["parallel_groups"] = parallel;
        row["seeds"] = static_cast<long long>(seed_count);
        row["best_energy"] = best;
        row["oracle_known"] = workload.oracle_known;
        row["oracle_energy"] = workload.oracle_energy;
        row["oracle_gap"] = gap;
        // Energies are exact hw integers, so a zero gap is exact too.
        const bool reached =
            workload.oracle_known && gap == 0.0;  // NOLINT(unit-float-eq)
        row["reached_oracle"] = reached;
        if (workload.oracle_known) {
          FamilyScore& score = scores[workload.family];
          ++score.oracle_rows;
          score.oracle_hits += reached ? 1 : 0;
          score.gap_sum += gap;
        }
        row["oracle_note"] = workload.note;
        if (workload.family == "maxcut") {
          // E_hw = W_total − 2·cut for from_maxcut models (multiplier 1).
          row["best_cut"] =
              (workload.maxcut_total - static_cast<long long>(best)) / 2;
        }
        row["variants_equivalent"] = equivalent;
        row["exact_mapping"] = exact;
        row["solve_seconds"] = seconds;
        row["update_cycles"] = static_cast<long long>(cycles);
        row["flips"] = static_cast<long long>(flips);
        rows.push_back(std::move(row));
      }
    }
    table.add_footnote(
        "best energy over " + std::to_string(seed_count) +
        " seeds, model units; equiv = memo on/off bit-identical incl. "
        "StorageCounters");
    table.print();

    Json report = Json::object();
    report["benchmark"] = "ext_qubo";
    report["smoke"] = smoke;
    Json families = Json::array();
    families.push_back(Json("maxcut"));
    families.push_back(Json("coloring"));
    families.push_back(Json("knapsack"));
    report["families"] = std::move(families);
    // Per-family quality over the oracle-known rows, for the CI floors.
    Json family_scores = Json::object();
    for (const auto& [family, score] : scores) {
      Json entry = Json::object();
      entry["oracle_rows"] = score.oracle_rows;
      entry["oracle_hits"] = score.oracle_hits;
      entry["gap_sum"] = score.gap_sum;
      family_scores[family] = std::move(entry);
    }
    report["family_scores"] = std::move(family_scores);
    report["all_variants_equivalent"] = all_equivalent;
    report["rows"] = std::move(rows);
    report.save(out_path);
    std::printf("wrote %s\n", out_path.c_str());
    return all_equivalent ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ext_qubo: %s\n", e.what());
    return 1;
  }
}
