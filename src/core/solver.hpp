// cimanneal public API.
//
// CimSolver is the one-stop entry point a downstream user needs: configure
// the design point (cluster strategy, p_max, noise source, schedule,
// backend), call solve() on a TSP instance, and receive the tour, its
// quality relative to a near-optimal reference, and the hardware PPA
// projection of the design that produced it.
//
//   using namespace cim;
//   core::SolverConfig config;
//   config.p_max = 3;
//   core::CimSolver solver(config);
//   auto outcome = solver.solve(tsp::make_paper_instance("pcb3038"));
//   // outcome.optimal_ratio, outcome.ppa->chip_area.mm2(), ...
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "anneal/clustered_annealer.hpp"
#include "anneal/ensemble.hpp"
#include "anneal/generic_annealer.hpp"
#include "anneal/maxcut_annealer.hpp"
#include "heuristics/reference.hpp"
#include "ising/generic.hpp"
#include "ising/partition.hpp"
#include "ppa/report.hpp"
#include "store/warm_start.hpp"
#include "tsp/instance.hpp"

namespace cim::core {

/// Optional CPU post-processing of the hardware tour (an extension beyond
/// the paper: the hierarchical decomposition leaves cluster-boundary
/// crossings that cheap classical local search repairs).
enum class PostRefine {
  kNone,   ///< the paper's design: hardware output as-is
  kLight,  ///< two bounded 2-opt/Or-opt passes
  kFull,   ///< local search to a joint 2-opt/Or-opt optimum
};

struct SolverConfig {
  /// Cluster sizing strategy (Table I): semi-flexible is the paper's
  /// recommended operating point.
  cluster::Strategy strategy = cluster::Strategy::kSemiFlexible;
  std::uint32_t p_max = 3;

  /// Annealing noise source; kSramWeight is the paper's design.
  anneal::NoiseMode noise = anneal::NoiseMode::kSramWeight;
  anneal::BackendKind backend = anneal::BackendKind::kFast;
  bool chromatic_parallel = true;

  noise::AnnealSchedule::Params schedule;  ///< paper defaults (§V)
  noise::SramNoiseParams sram;             ///< 16 nm compact model defaults
  std::uint32_t weight_bits = 8;
  std::uint64_t seed = 1;
  bool record_trace = false;

  /// Spin-grouping strategy for solve_ising (ising/partition.hpp): the
  /// window-clustering axis of the generic QUBO/Ising front-end.
  ising::GroupStrategy group_strategy = ising::GroupStrategy::kChromatic;
  std::uint32_t group_block = 64;  ///< width bound for blocked strategies

  /// Compute the classical reference tour for optimal-ratio reporting
  /// (costs one greedy+2-opt+Or-opt pass; disable for timing studies).
  bool compute_reference = true;
  /// Attach the hardware PPA projection to the outcome.
  bool compute_ppa = true;

  /// Amorphica-style replication: run this many independently seeded
  /// replicas (host threads) and keep the best tour.
  std::size_t replicas = 1;
  /// CPU post-refinement of the hardware tour (see PostRefine).
  PostRefine post_refine = PostRefine::kNone;

  /// Non-empty → persistent warm-start store directory (DESIGN.md §16).
  /// Before the solve, the instance fingerprint is looked up and any
  /// stored best tour seeds the annealer's initial ring/slot order; after
  /// the solve, the final tour is written back when it improves on the
  /// stored score. A corrupt or version-mismatched store entry degrades
  /// to a cold start, and a failed write-back is counted in
  /// WarmStartStats::write_failures while the solve still returns its
  /// answer. A directory that cannot be opened fails before the anneal.
  std::string warm_start_dir;

  /// Non-empty → after the solve, the global telemetry registry is
  /// serialised here as a versioned JSON snapshot, with the Chrome-trace
  /// event buffer beside it at telemetry_trace_path(telemetry_out). With
  /// telemetry compiled off the files still appear, carrying
  /// telemetry_enabled=false (DESIGN.md §12).
  std::string telemetry_out;
};

/// The trace-file companion of a snapshot path: "x.json" → "x.trace.json"
/// (a missing .json suffix just appends ".trace.json").
std::string telemetry_trace_path(const std::string& snapshot_path);

struct SolveOutcome {
  anneal::AnnealResult anneal;      ///< tour, per-level stats, hw activity
  long long tour_length = 0;        ///< final (possibly refined) length
  long long hardware_length = 0;    ///< length straight out of the annealer
  /// Lengths of all replicas when replicas > 1 (best one is `anneal`).
  std::vector<long long> replica_lengths;
  std::optional<long long> reference_length;
  /// tour_length / reference_length (the paper's "optimal ratio");
  /// unset when the reference is disabled.
  std::optional<double> optimal_ratio;
  std::optional<ppa::PpaReport> ppa;
  /// Host wall time of the whole call: store lookup, anneal, refinement,
  /// store write, reference, PPA and telemetry export.
  double solve_wall_seconds = 0.0;
  /// True when a stored tour seeded this solve (warm_start_dir hit).
  bool warm_started = false;
  /// Store traffic for this solve when warm_start_dir is set.
  std::optional<store::WarmStartStats> warm_start;
};

/// Outcome of a generic QUBO/Ising solve (CimSolver::solve_ising).
struct IsingOutcome {
  anneal::GenericResult anneal;  ///< spins, energies, window stats
  long long energy_hw = 0;       ///< best integer energy (hardware units)
  double energy = 0.0;           ///< same in model units (incl. offset)
  double solve_wall_seconds = 0.0;  ///< whole call, as in SolveOutcome
  /// True when a stored assignment seeded this solve (warm_start_dir hit).
  bool warm_started = false;
  std::optional<store::WarmStartStats> warm_start;
};

/// Outcome of a Max-Cut solve (CimSolver::solve_maxcut).
struct MaxCutOutcome {
  anneal::MaxCutResult anneal;
  long long cut = 0;  ///< best cut seen
  double solve_wall_seconds = 0.0;  ///< whole call, as in SolveOutcome
  bool warm_started = false;
  std::optional<store::WarmStartStats> warm_start;
};

class CimSolver {
 public:
  CimSolver() : CimSolver(SolverConfig{}) {}
  explicit CimSolver(SolverConfig config);

  const SolverConfig& config() const { return config_; }

  /// Solves `instance` end-to-end; see SolveOutcome.
  SolveOutcome solve(const tsp::Instance& instance) const;

  /// Solves a generic QUBO/Ising model on the CIM substrate using the
  /// configured group strategy. With warm_start_dir set, the model's
  /// content fingerprint is looked up for a stored ±1 assignment before
  /// the solve and the best assignment is written back after (score =
  /// −energy_hw; a corrupt record degrades to a cold start).
  IsingOutcome solve_ising(const ising::GenericModel& model) const;

  /// Solves a Max-Cut instance, with the same warm-start wiring keyed by
  /// the instance's Ising-image fingerprint (score = cut).
  MaxCutOutcome solve_maxcut(const ising::MaxCutProblem& problem) const;

  /// The annealer configuration this solver drives (for advanced use).
  anneal::AnnealerConfig annealer_config() const;

  /// The PPA design point for an instance of `n` cities.
  ppa::DesignPoint design_point(const std::string& name, std::size_t n) const;

 private:
  SolverConfig config_;
};

}  // namespace cim::core
