// Generic QUBO/Ising solver CLI: loads a GSet graph (--gset FILE, solved
// as Max-Cut) or a sparse J/h coefficient file (--jh FILE, solved as a
// generic Ising model) and anneals it on the noisy digital-CIM
// substrate through the core::CimSolver front-end.
//
//   ./qubo_solver --gset tests/qubo_fixtures/petersen.gset
//   ./qubo_solver --jh tests/qubo_fixtures/chain4.jh --seed 3
//       --sweeps 800 --strategy index-blocks --block 32 --warm-dir /tmp/ws
//
// --strategy picks the window-clustering hook (chromatic or
// index-blocks); --warm-dir enables the persistent spin
// warm-start store, so a second run on the same instance starts from the
// stored best assignment.
#include <cstdio>
#include <exception>
#include <string>

#include "core/solver.hpp"
#include "ising/generic.hpp"
#include "qubo/io.hpp"
#include "util/args.hpp"
#include "util/units.hpp"

namespace {

cim::core::SolverConfig make_config(const cim::util::Args& args) {
  cim::core::SolverConfig config;
  config.schedule.total_iterations =
      static_cast<std::uint32_t>(args.get_int("sweeps", 400));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.group_block =
      static_cast<std::uint32_t>(args.get_int("block", 64));
  config.warm_start_dir = args.get_or("warm-dir", "");
  config.compute_reference = false;
  config.compute_ppa = false;
  const std::string strategy = args.get_or("strategy", "chromatic");
  const auto parsed = cim::ising::parse_group_strategy(strategy);
  if (!parsed) {
    throw cim::ConfigError("unknown --strategy '" + strategy +
                           "' (chromatic, index-blocks)");
  }
  config.group_strategy = *parsed;
  return config;
}

void print_warm_start(bool warm_started) {
  std::printf("warm start: %s\n",
              warm_started ? "hit (stored assignment seeded the anneal)"
                           : "cold");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cim::util::Args args(argc, argv);
    if (args.has("gset") == args.has("jh")) {
      std::fprintf(stderr,
                   "usage: %s (--gset FILE | --jh FILE) [--seed N] "
                   "[--sweeps N] [--strategy NAME] [--block N] "
                   "[--warm-dir DIR]\n",
                   args.program().c_str());
      return 2;
    }
    const auto config = make_config(args);
    const cim::core::CimSolver solver(config);

    if (args.has("gset")) {
      const auto problem = cim::qubo::load_gset_file(*args.get("gset"));
      std::printf("Max-Cut '%s': %zu vertices, %zu edges, total weight "
                  "%lld\n",
                  problem.name().c_str(), problem.size(),
                  problem.edge_count(), problem.total_weight());
      const auto outcome = solver.solve_maxcut(problem);
      print_warm_start(outcome.warm_started);
      std::printf("best cut %lld (%zu flips, %llu update cycles) in %s\n",
                  outcome.cut, outcome.anneal.flips,
                  static_cast<unsigned long long>(
                      outcome.anneal.update_cycles),
                  cim::util::format_seconds(outcome.solve_wall_seconds)
                      .c_str());
      return 0;
    }

    const auto model = cim::qubo::load_jh_file(*args.get("jh"));
    std::printf("Ising '%s': %zu spins, %zu couplings, %zu fields\n"
                "fingerprint %s\n",
                model.name().c_str(), model.size(),
                model.couplings().size(), model.fields().size(),
                model.fingerprint().c_str());
    const auto outcome = solver.solve_ising(model);
    print_warm_start(outcome.warm_started);
    std::printf(
        "best energy %.6g (hw units %lld%s) across %zu window groups in "
        "%s\n",
        outcome.energy, outcome.energy_hw,
        outcome.anneal.exact_mapping ? ", exact mapping"
                                     : ", quantised dynamics",
        outcome.anneal.group_count,
        cim::util::format_seconds(outcome.solve_wall_seconds).c_str());
    std::printf("spins:");
    for (const auto spin : outcome.anneal.best_spins) {
      std::printf(" %c", spin > 0 ? '+' : '-');
    }
    std::printf("\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
