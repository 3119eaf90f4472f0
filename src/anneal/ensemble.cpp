#include "anneal/ensemble.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/random.hpp"
#include "util/telemetry.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace cim::anneal {

namespace telemetry = util::telemetry;

long long EnsembleResult::worst_length() const {
  CIM_ASSERT(!replica_lengths.empty());
  return *std::max_element(replica_lengths.begin(), replica_lengths.end());
}

double EnsembleResult::mean_length() const {
  CIM_ASSERT(!replica_lengths.empty());
  double acc = 0.0;
  for (const long long len : replica_lengths) {
    acc += static_cast<double>(len);
  }
  return acc / static_cast<double>(replica_lengths.size());
}

ReplicaEnsemble::ReplicaEnsemble(EnsembleConfig config)
    : config_(std::move(config)) {
  CIM_REQUIRE(config_.replicas >= 1, "ensemble needs at least one replica");
}

// Replica fan-out and lowest-index reduction: a determinism-taint root
// so per-replica seeding stays a pure function of the replica index.
CIM_DETERMINISM_ROOT
EnsembleResult ReplicaEnsemble::solve(const tsp::Instance& instance) const {
  const telemetry::Scope ensemble_scope(
      telemetry::Registry::global(), "ensemble.solve",
      {{"replicas", static_cast<double>(config_.replicas)}});
  std::vector<AnnealResult> results(config_.replicas);

  const auto run_replica = [&](std::size_t r) {
    AnnealerConfig config = config_.base;
    // Independent annealing randomness and noise pattern per replica
    // (each replica is a distinct physical array region); the clustering
    // stays shared, as the hierarchy would be computed once.
    config.seed = util::hash_combine(config_.base.seed, 0xE5E + r);
    results[r] = ClusteredAnnealer(config).solve(instance);
  };

  if (config_.replicas > 1) {
    // One pool task per replica: a thread waiting inside a replica runs
    // only that replica's own batches, so in flight stays bounded by the
    // pool's threads plus the caller. results[r] depends only on r, and
    // run() finishes every replica before it rethrows the failure of the
    // lowest one.
    util::ThreadPool::shared().run(config_.replicas, run_replica);
  } else {
    run_replica(0);
  }

  EnsembleResult ensemble;
  ensemble.replica_lengths.reserve(config_.replicas);
  std::size_t best = 0;
  for (std::size_t r = 0; r < config_.replicas; ++r) {
    ensemble.replica_lengths.push_back(results[r].length);
    if (results[r].length < results[best].length) best = r;
  }
  ensemble.best_replica = best;
  ensemble.best = std::move(results[best]);

  if constexpr (telemetry::kEnabled) {
    telemetry::Registry& telem = telemetry::Registry::global();
    telem.counter("ensemble.replicas_solved").add(config_.replicas);
    telem.gauge("ensemble.last_best_length")
        .set(static_cast<double>(ensemble.best.length));
    telem.gauge("ensemble.last_mean_length").set(ensemble.mean_length());
  }
  return ensemble;
}

}  // namespace cim::anneal
