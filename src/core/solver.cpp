#include "core/solver.hpp"

#include "core/report.hpp"
#include "heuristics/or_opt.hpp"
#include "heuristics/two_opt.hpp"
#include "tsp/fingerprint.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace cim::core {

std::string telemetry_trace_path(const std::string& snapshot_path) {
  const std::string suffix = ".json";
  if (snapshot_path.size() > suffix.size() &&
      snapshot_path.compare(snapshot_path.size() - suffix.size(),
                            suffix.size(), suffix) == 0) {
    return snapshot_path.substr(0, snapshot_path.size() - suffix.size()) +
           ".trace.json";
  }
  return snapshot_path + ".trace.json";
}

CimSolver::CimSolver(SolverConfig config) : config_(std::move(config)) {
  CIM_REQUIRE(config_.p_max >= 1, "p_max must be at least 1");
  CIM_REQUIRE(config_.replicas >= 1, "replicas must be at least 1");
  if (config_.strategy != cluster::Strategy::kUnlimited) {
    CIM_REQUIRE(config_.p_max >= 2,
                "fixed/semi-flexible strategies need p_max >= 2");
  }
}

anneal::AnnealerConfig CimSolver::annealer_config() const {
  anneal::AnnealerConfig cfg;
  cfg.clustering.strategy = config_.strategy;
  cfg.clustering.p = config_.p_max;
  cfg.clustering.seed = util::hash_combine(config_.seed, 0xC105);
  cfg.schedule = config_.schedule;
  cfg.sram = config_.sram;
  cfg.noise = config_.noise;
  cfg.backend = config_.backend;
  cfg.chromatic_parallel = config_.chromatic_parallel;
  cfg.weight_bits = config_.weight_bits;
  cfg.seed = config_.seed;
  cfg.record_trace = config_.record_trace;
  return cfg;
}

ppa::DesignPoint CimSolver::design_point(const std::string& name,
                                         std::size_t n) const {
  ppa::DesignPoint point;
  point.instance_name = name;
  point.n_cities = n;
  point.p = config_.p_max;
  point.strategy = config_.strategy == cluster::Strategy::kFixed
                       ? hw::SizingStrategy::kFixed
                       : hw::SizingStrategy::kSemiFlexible;
  point.schedule = config_.schedule;
  point.weight_bits = config_.weight_bits;
  return point;
}

IsingOutcome CimSolver::solve_ising(const ising::GenericModel& model) const {
  IsingOutcome outcome;
  const util::Timer timer;

  anneal::GenericAnnealConfig cfg;
  cfg.schedule = config_.schedule;
  cfg.sram = config_.sram;
  cfg.noise = config_.noise;
  cfg.strategy = config_.group_strategy;
  cfg.group_block = config_.group_block;
  cfg.weight_bits = config_.weight_bits;
  cfg.seed = config_.seed;
  cfg.record_trace = config_.record_trace;

  std::optional<store::WarmStartStore> warm_store;
  std::string fingerprint;
  if (!config_.warm_start_dir.empty()) {
    warm_store.emplace(config_.warm_start_dir);
    fingerprint = model.fingerprint();
    if (auto spins = warm_store->load_spins(fingerprint, model.size())) {
      cfg.initial_spins = std::move(*spins);
      outcome.warm_started = true;
    }
  }

  const anneal::GenericAnnealer annealer(cfg);
  outcome.anneal = annealer.solve(model);
  outcome.energy_hw = outcome.anneal.best_energy_hw;
  outcome.energy = outcome.anneal.best_energy;

  if (warm_store) {
    // The store ranks scores higher-is-better; energies are minimised.
    // A failed write is counted in the stats, not thrown.
    warm_store->store_spins(
        fingerprint,
        std::span<const ising::Spin>(outcome.anneal.best_spins.data(),
                                     outcome.anneal.best_spins.size()),
        -outcome.energy_hw);
    outcome.warm_start = warm_store->stats();
  }

  if (!config_.telemetry_out.empty()) {
    save_telemetry(config_.telemetry_out);
  }
  outcome.solve_wall_seconds = timer.seconds();
  return outcome;
}

MaxCutOutcome CimSolver::solve_maxcut(
    const ising::MaxCutProblem& problem) const {
  MaxCutOutcome outcome;
  const util::Timer timer;

  anneal::MaxCutConfig cfg;
  cfg.schedule = config_.schedule;
  cfg.sram = config_.sram;
  cfg.noise = config_.noise;
  cfg.weight_bits = config_.weight_bits;
  cfg.seed = config_.seed;
  cfg.record_trace = config_.record_trace;

  std::optional<store::WarmStartStore> warm_store;
  std::string fingerprint;
  if (!config_.warm_start_dir.empty()) {
    warm_store.emplace(config_.warm_start_dir);
    fingerprint = ising::GenericModel::from_maxcut(problem).fingerprint();
    if (auto spins = warm_store->load_spins(fingerprint, problem.size())) {
      cfg.initial_spins = std::move(*spins);
      outcome.warm_started = true;
    }
  }

  const anneal::MaxCutAnnealer annealer(cfg);
  outcome.anneal = annealer.solve(problem);
  outcome.cut = outcome.anneal.best_cut;

  if (warm_store) {
    warm_store->store_spins(
        fingerprint,
        std::span<const ising::Spin>(outcome.anneal.spins.data(),
                                     outcome.anneal.spins.size()),
        outcome.anneal.cut);
    outcome.warm_start = warm_store->stats();
  }

  if (!config_.telemetry_out.empty()) {
    save_telemetry(config_.telemetry_out);
  }
  outcome.solve_wall_seconds = timer.seconds();
  return outcome;
}

SolveOutcome CimSolver::solve(const tsp::Instance& instance) const {
  SolveOutcome outcome;
  const util::Timer timer;

  // Warm start: seed the annealer from the persistent store when a valid
  // tour for this instance fingerprint exists (DESIGN.md §16).
  std::optional<store::WarmStartStore> warm_store;
  std::string fingerprint;
  anneal::AnnealerConfig base = annealer_config();
  if (!config_.warm_start_dir.empty()) {
    warm_store.emplace(config_.warm_start_dir);
    fingerprint = tsp::instance_fingerprint(instance);
    if (auto order = warm_store->load_tour(fingerprint, instance.size())) {
      base.initial_order = std::move(*order);
      outcome.warm_started = true;
    }
  }

  if (config_.replicas > 1) {
    anneal::EnsembleConfig ensemble_config;
    ensemble_config.base = base;
    ensemble_config.replicas = config_.replicas;
    const anneal::ReplicaEnsemble ensemble(ensemble_config);
    auto ensemble_result = ensemble.solve(instance);
    outcome.replica_lengths = std::move(ensemble_result.replica_lengths);
    outcome.anneal = std::move(ensemble_result.best);
  } else {
    const anneal::ClusteredAnnealer annealer(base);
    outcome.anneal = annealer.solve(instance);
  }
  outcome.hardware_length = outcome.anneal.length;
  outcome.tour_length = outcome.hardware_length;

  if (config_.post_refine != PostRefine::kNone && instance.size() >= 5) {
    heuristics::TwoOptOptions two;
    heuristics::OrOptOptions oro;
    if (config_.post_refine == PostRefine::kLight) {
      two.max_passes = 2;
      oro.max_passes = 2;
    }
    tsp::Tour& tour = outcome.anneal.tour;
    heuristics::two_opt(instance, tour, two);
    const auto refined = heuristics::or_opt(instance, tour, oro);
    outcome.anneal.length = refined.final_length;
    outcome.tour_length = refined.final_length;
  }

  if (warm_store) {
    const auto order = outcome.anneal.tour.order();
    warm_store->store_tour(
        fingerprint, std::span<const tsp::CityId>(order.data(), order.size()),
        outcome.tour_length);
    outcome.warm_start = warm_store->stats();
  }

  if (config_.compute_reference) {
    const heuristics::Reference ref = heuristics::compute_reference(instance);
    outcome.reference_length = ref.length;
    if (ref.length > 0) {
      outcome.optimal_ratio =
          tsp::optimal_ratio(outcome.tour_length, ref.length);
    }
  }

  if (config_.compute_ppa) {
    outcome.ppa = ppa::measured_report(
        design_point(instance.name(), instance.size()), outcome.anneal.hw,
        outcome.anneal.hierarchy_depth);
  }

  if (!config_.telemetry_out.empty()) {
    save_telemetry(config_.telemetry_out);
  }
  outcome.solve_wall_seconds = timer.seconds();
  return outcome;
}

}  // namespace cim::core
