#include "anneal/ensemble.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
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
  std::vector<std::exception_ptr> errors(config_.replicas);

  const auto run_replica = [&](std::size_t r) {
    AnnealerConfig config = config_.base;
    // Independent annealing randomness and noise pattern per replica
    // (each replica is a distinct physical array region); the clustering
    // stays shared, as the hierarchy would be computed once.
    config.seed = util::hash_combine(config_.base.seed, 0xE5E + r);
    results[r] = ClusteredAnnealer(config).solve(instance);
  };

  if (config_.replicas > 1) {
    // Replicas are tasks on the persistent shared pool instead of raw OS
    // threads, so in-flight replicas are capped at the pool width rather
    // than growing with the replica count. Each runner pulls replica
    // indices from one atomic cursor; results[r] depends only on r, so
    // which runner solves which replica cannot change the outcome.
    util::ThreadPool& pool = util::ThreadPool::shared();
    const std::size_t runners =
        std::min(std::max<std::size_t>(pool.width(), 1), config_.replicas);
    std::atomic<std::size_t> next{0};
    pool.run(runners, [&](std::size_t) {
      for (std::size_t r = next.fetch_add(1); r < config_.replicas;
           r = next.fetch_add(1)) {
        // A replica failure must not abort its siblings; capture it and
        // rethrow after every replica finished, in replica order.
        try {
          run_replica(r);
        } catch (...) {
          errors[r] = std::current_exception();
        }
      }
    });
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
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
