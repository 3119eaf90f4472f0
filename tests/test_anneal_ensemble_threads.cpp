// Thread-stress tests for anneal::ReplicaEnsemble — the workload the TSan
// preset exercises. Several ensembles solve the same instance concurrently,
// publishing into a shared best-solution sink; bit-identical results for
// identical seeds must hold regardless of the host thread count, because
// replica seeds are derived from the base seed, never from scheduling.
#include "anneal/ensemble.hpp"

#include <algorithm>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace cim::anneal {
namespace {

EnsembleConfig small_config(std::uint64_t seed, std::size_t replicas) {
  EnsembleConfig config;
  config.base.clustering.p = 3;
  config.base.seed = seed;
  config.replicas = replicas;
  return config;
}

/// Shared best-solution sink: concurrent solvers publish their outcomes
/// and the sink keeps the champion (the production service shape — many
/// annealer shards racing toward one incumbent).
class BestSink {
 public:
  void offer(const EnsembleResult& result) {
    const std::lock_guard<std::mutex> lock(mu_);
    offers_.push_back(result.best.length);
    if (!has_best_ || result.best.length < best_.best.length) {
      best_ = result;
      has_best_ = true;
    }
  }

  EnsembleResult best() const {
    const std::lock_guard<std::mutex> lock(mu_);
    CIM_REQUIRE(has_best_, "sink received no offers");
    return best_;
  }

  std::vector<long long> offers() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return offers_;
  }

 private:
  mutable std::mutex mu_;
  bool has_best_ = false;
  EnsembleResult best_;
  std::vector<long long> offers_;
};

TEST(EnsembleThreads, IdenticalSeedsIdenticalResultsAcrossThreadCounts) {
  const auto inst = test::random_instance(120, 7);
  // Repeated pooled runs of the same seeded ensemble must agree exactly
  // (no scheduling leakage), and the best replica must be the same tour
  // a direct solve with its derived seed gives. The pool-width sweep is
  // the anneal_ensemble_threads_{1,2,8} rerun of test_anneal_ensemble.
  const EnsembleConfig config = small_config(42, 4);
  const auto threaded = ReplicaEnsemble(config).solve(inst);
  const auto threaded_again = ReplicaEnsemble(config).solve(inst);

  EXPECT_EQ(threaded.replica_lengths, threaded_again.replica_lengths);
  EXPECT_EQ(threaded.best_replica, threaded_again.best_replica);
  EXPECT_EQ(threaded.best.tour, threaded_again.best.tour);

  AnnealerConfig best = config.base;
  best.seed =
      util::hash_combine(config.base.seed, 0xE5E + threaded.best_replica);
  const auto direct = ClusteredAnnealer(best).solve(inst);
  EXPECT_EQ(threaded.best.length, direct.length);
  EXPECT_EQ(threaded.best.tour, direct.tour);
}

TEST(EnsembleThreads, ConcurrentEnsemblesSharedSink) {
  const auto inst = test::random_instance(100, 11);
  constexpr std::size_t kConcurrent = 4;

  // Reference: each seeded ensemble solved alone, one after another.
  std::vector<EnsembleResult> expected;
  expected.reserve(kConcurrent);
  for (std::size_t s = 0; s < kConcurrent; ++s) {
    expected.push_back(ReplicaEnsemble(small_config(100 + s, 3)).solve(inst));
  }

  // Same ensembles, all racing at once (threaded replicas inside threaded
  // drivers — the maximally contended shape), publishing into one sink.
  BestSink sink;
  std::vector<EnsembleResult> concurrent(kConcurrent);
  {
    // NOLINT(raw-thread): the test needs out-of-pool driver threads to
    // contend *with* the pool; running drivers on the pool itself would
    // serialise the very races under test.
    std::vector<std::thread> drivers;
    drivers.reserve(kConcurrent);
    for (std::size_t s = 0; s < kConcurrent; ++s) {
      drivers.emplace_back([&inst, &sink, &concurrent, s] {
        const ReplicaEnsemble ensemble(small_config(100 + s, 3));
        concurrent[s] = ensemble.solve(inst);
        sink.offer(concurrent[s]);
      });
    }
    for (std::thread& d : drivers) d.join();  // NOLINT(raw-thread): see above
  }

  long long best_expected = expected.front().best.length;
  for (std::size_t s = 0; s < kConcurrent; ++s) {
    EXPECT_EQ(concurrent[s].replica_lengths, expected[s].replica_lengths)
        << "ensemble seed " << 100 + s;
    EXPECT_EQ(concurrent[s].best.tour,
              expected[s].best.tour);
    best_expected = std::min(best_expected, expected[s].best.length);
  }
  EXPECT_EQ(sink.best().best.length, best_expected);
  EXPECT_EQ(sink.offers().size(), kConcurrent);
}

TEST(EnsembleThreads, ReplicaFailurePropagatesAndJoins) {
  // weight_bits = 0 makes every replica's ClusteredAnnealer constructor
  // throw *inside its worker thread*; the ensemble must join all workers
  // and rethrow on the calling thread instead of std::terminate-ing.
  const auto inst = test::random_instance(60, 13);
  auto config = small_config(5, 3);
  config.base.weight_bits = 0;
  const ReplicaEnsemble ensemble(config);
  EXPECT_THROW(ensemble.solve(inst), ConfigError);
}

}  // namespace
}  // namespace cim::anneal
