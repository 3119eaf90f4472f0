// Inputs of the end-to-end benchmark's four workloads (bench/e2e/README.md).
//
// Every instance and every solver seed derives from the workload seed, so
// one seed always produces the same inputs. A workload is one "round" of
// front-door calls; cimbench repeats whole rounds, which keeps the
// distribution of call times the same however many rounds fit in a run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/solver.hpp"
#include "ising/generic.hpp"
#include "ising/maxcut.hpp"
#include "qubo/coloring.hpp"
#include "qubo/knapsack.hpp"
#include "tsp/instance.hpp"

namespace cim::bench::e2e {

enum class CallKind { kTsp, kMaxCut, kIsing };

/// A G-set-style graph and the GSet text it was parsed from.
struct MaxCutItem {
  ising::MaxCutProblem problem;
  std::string gset;
};

enum class IsingFamily {
  kSpinGlass,        ///< sparse ±J couplings with fields, parsed from J/h text
  kPlantedColoring,  ///< penalty-encoded colouring with a planted solution
  kOracleColoring,   ///< small colouring, optimum known by enumeration
  kOracleKnapsack,   ///< small knapsack, optimum known by enumeration
};

struct IsingItem {
  IsingItem(IsingFamily family_, ising::GenericModel model_,
            std::string jh_ = {})
      : family(family_), model(std::move(model_)), jh(std::move(jh_)) {}

  IsingFamily family;
  ising::GenericModel model;
  std::string jh;  ///< J/h text the model was parsed from (spin glasses)
  std::optional<qubo::ColoringInstance> coloring;
  std::optional<qubo::ColoringEncoding> coloring_code;
  std::optional<qubo::KnapsackInstance> knapsack;
  std::optional<qubo::KnapsackEncoding> knapsack_code;
  long long knapsack_best = 0;  ///< brute-force optimum value
};

/// One front-door call of a round.
struct Call {
  CallKind kind = CallKind::kTsp;
  std::size_t item = 0;  ///< index into the workload's list for `kind`
  std::uint64_t solver_seed = 1;
  /// 2 marks the repeat solve of a store workload, which must hit the
  /// record pass 1 wrote.
  int pass = 1;
};

struct Workload {
  std::string name;
  core::SolverConfig config;  ///< seed and store dir are set per call
  bool uses_store = false;
  /// Percentile of all timed calls reported as solve_tail_s: the highest
  /// with about ten calls beyond it in a default-length run, except on
  /// tsp-large, whose run times only about nine calls.
  double tail_quantile = 0.9;
  std::vector<tsp::Instance> tsp;
  std::vector<MaxCutItem> maxcut;
  std::vector<IsingItem> ising;
  std::vector<Call> calls;
};

const std::vector<std::string>& workload_names();

/// Generates every input of workload `name` from `seed`; throws
/// cim::ConfigError for an unknown name. `warmup` builds the few small
/// calls run untimed during set-up instead of the measured round.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool warmup);

}  // namespace cim::bench::e2e
