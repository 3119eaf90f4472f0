// Reuse-layer head-to-head (DESIGN.md §16): the three memory-hierarchy
// optimisations measured against their baselines on one report.
//
//   warm_start    cold vs. warm-started solve of the same instance:
//                 time to reach a 1% optimality gap against the best
//                 final tour either run produced. The warm run seeds the
//                 ring/slot order from the persistent store, so it starts
//                 inside the gap the cold run spends most of its epochs
//                 closing.
//   scan          candidate-scan throughput: blocked NeighborLists
//                 distances (contiguous, precomputed) vs. recomputing
//                 instance.distance() per visit. Checksums must match —
//                 the stored values are the exact TSPLIB integers.
//   memoization   full annealer runs with the per-slot swap ΔE cache on
//                 vs. off, one row at p = 3 (the paper's operating point,
//                 where order pairs repeat most) and one at p = 8. Tours,
//                 lengths and hardware MAC counters must be bit-identical
//                 (§9 equivalence); only wall time and the hit counters
//                 may differ.
//
// Writes BENCH_reuse.json (CIMANNEAL_BENCH_OUT_REUSE overrides the path;
// CIMANNEAL_BENCH_SMOKE=1 shrinks the workloads for CI). See
// EXPERIMENTS.md for the report schema.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "anneal/clustered_annealer.hpp"
#include "bench_common.hpp"
#include "store/warm_start.hpp"
#include "tsp/fingerprint.hpp"
#include "tsp/generator.hpp"
#include "tsp/neighbors.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

/// Seconds until the recorded trace first dips to `target`, scaled from
/// the run's wall time (the trace is sampled once per iteration). A run
/// that never reaches the target is charged its full wall time.
double time_to_target(const std::vector<double>& trace, double target,
                      double wall_seconds) {
  if (trace.empty()) return wall_seconds;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i] <= target) {
      return wall_seconds * static_cast<double>(i + 1) /
             static_cast<double>(trace.size());
    }
  }
  return wall_seconds;
}

cim::util::Json warm_start_section(bool smoke) {
  const auto instance =
      cim::tsp::generate_clustered(smoke ? 400 : 2000, 8, 1234);
  const std::string key = cim::tsp::instance_fingerprint(instance);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "cim_bench_reuse_store")
          .string();
  std::filesystem::remove_all(dir);

  cim::anneal::AnnealerConfig config;
  config.clustering.p = 3;
  config.seed = 7;
  config.record_trace = true;

  cim::util::Timer timer;
  const cim::anneal::ClusteredAnnealer cold_annealer(config);
  const auto cold = cold_annealer.solve(instance);
  const double cold_wall = timer.seconds();

  cim::store::WarmStartStore store(dir);
  const auto cold_order = cold.tour.order();
  store.store_tour(key, cold_order, cold.length);

  auto warm_config = config;
  const auto stored = store.load_tour(key, instance.size());
  CIM_REQUIRE(stored.has_value(), "bench_reuse: stored tour did not load");
  warm_config.initial_order = *stored;
  timer.restart();
  const cim::anneal::ClusteredAnnealer warm_annealer(warm_config);
  const auto warm = warm_annealer.solve(instance);
  const double warm_wall = timer.seconds();

  const double best_final =
      static_cast<double>(std::min(cold.length, warm.length));
  const double target = 1.01 * best_final;
  const double cold_ttt = time_to_target(cold.trace, target, cold_wall);
  // The warm run's starting tour is the cold run's final one: when it is
  // already inside the 1% gap, the warm solve reaches the target by its
  // first iteration.
  const double warm_first_sample =
      warm_wall / static_cast<double>(std::max<std::size_t>(
                      warm.trace.size(), 1));
  const double warm_ttt =
      static_cast<double>(cold.length) <= target
          ? warm_first_sample
          : time_to_target(warm.trace, target, warm_wall);

  cim::util::Json section = cim::util::Json::object();
  section["cities"] = static_cast<std::uint64_t>(instance.size());
  section["cold_seconds"] = cold_wall;
  section["warm_seconds"] = warm_wall;
  section["cold_length"] = static_cast<std::uint64_t>(cold.length);
  section["warm_length"] = static_cast<std::uint64_t>(warm.length);
  section["target_length"] = target;
  section["cold_time_to_target_s"] = cold_ttt;
  section["warm_time_to_target_s"] = warm_ttt;
  section["speedup_time_to_target"] =
      warm_ttt > 0.0 ? cold_ttt / warm_ttt : 0.0;
  section["store_hits"] = store.stats().hits;
  section["store_stores"] = store.stats().stores;
  std::printf(
      "warm_start n=%zu: cold %.3fs (to-1%%-gap %.3fs), warm %.3fs "
      "(to-1%%-gap %.3fs), speedup %.1fx\n",
      instance.size(), cold_wall, cold_ttt, warm_wall, warm_ttt,
      warm_ttt > 0.0 ? cold_ttt / warm_ttt : 0.0);

  std::filesystem::remove_all(dir);
  return section;
}

cim::util::Json scan_section(bool smoke) {
  const auto instance =
      cim::tsp::generate_clustered(smoke ? 2000 : 20000, 16, 99);
  const std::size_t k = 12;
  cim::tsp::NeighborLists::Options options;
  options.with_distances = true;
  const cim::tsp::NeighborLists neighbors(instance, k, options);
  const std::size_t repeats = smoke ? 20 : 100;
  const std::size_t n = instance.size();

  // Tiled: read the blocked, precomputed candidate distances.
  cim::util::Timer timer;
  long long tiled_sum = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      for (const long long d :
           neighbors.dist_of(static_cast<cim::tsp::CityId>(c))) {
        tiled_sum += d;
      }
    }
  }
  const double tiled_s = timer.seconds();

  // Untiled: recompute each candidate distance on the fly.
  timer.restart();
  long long untiled_sum = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      for (const cim::tsp::CityId cand :
           neighbors.of(static_cast<cim::tsp::CityId>(c))) {
        untiled_sum +=
            instance.distance(static_cast<cim::tsp::CityId>(c), cand);
      }
    }
  }
  const double untiled_s = timer.seconds();
  CIM_REQUIRE(tiled_sum == untiled_sum,
              "bench_reuse: tiled and untiled scans disagree");

  const double candidates =
      static_cast<double>(repeats) * static_cast<double>(n) *
      static_cast<double>(k);
  cim::util::Json section = cim::util::Json::object();
  section["cities"] = static_cast<std::uint64_t>(n);
  section["k"] = static_cast<std::uint64_t>(k);
  section["candidates_scanned"] = candidates;
  section["tiled_ns_per_candidate"] = tiled_s * 1e9 / candidates;
  section["untiled_ns_per_candidate"] = untiled_s * 1e9 / candidates;
  section["speedup_tiled_vs_untiled"] =
      tiled_s > 0.0 ? untiled_s / tiled_s : 0.0;
  std::printf("scan n=%zu k=%zu: tiled %.2f ns/cand, untiled %.2f ns/cand "
              "(%.2fx)\n",
              n, k, tiled_s * 1e9 / candidates, untiled_s * 1e9 / candidates,
              tiled_s > 0.0 ? untiled_s / tiled_s : 0.0);
  return section;
}

/// One memoization row: the same anneal at window size `p` on the sparse
/// kernel with its swap ΔE cache ("memo") and on the dense kernel, the
/// oracle that recomputes every MAC ("recompute").
cim::util::Json memoization_row(const cim::tsp::Instance& instance,
                                std::uint32_t p) {
  cim::anneal::AnnealerConfig memo_config;
  memo_config.clustering.p = p;
  memo_config.seed = 11;
  memo_config.sparse_swap_kernel = true;
  auto recompute_config = memo_config;
  recompute_config.sparse_swap_kernel = false;

  cim::util::Timer timer;
  const auto memo =
      cim::anneal::ClusteredAnnealer(memo_config).solve(instance);
  const double memo_s = timer.seconds();
  timer.restart();
  const auto recompute =
      cim::anneal::ClusteredAnnealer(recompute_config).solve(instance);
  const double recompute_s = timer.seconds();

  // §9 equivalence: the cache may only change wall time and hit counters.
  CIM_REQUIRE(memo.length == recompute.length &&
                  memo.tour == recompute.tour,
              "bench_reuse: memoized run diverged from recompute");
  CIM_REQUIRE(
      memo.hw.storage.macs == recompute.hw.storage.macs &&
          memo.hw.storage.mac_bit_reads == recompute.hw.storage.mac_bit_reads &&
          memo.hw.storage.pseudo_read_flips ==
              recompute.hw.storage.pseudo_read_flips,
      "bench_reuse: memoized run changed hardware MAC accounting");
  // The quiescent-slot fast path charges its attempts and dataflow in
  // batches, so their totals must still match the oracle's.
  CIM_REQUIRE(memo.hw.swap_attempts == recompute.hw.swap_attempts &&
                  memo.hw.dataflow == recompute.hw.dataflow,
              "bench_reuse: memoized run changed swap or dataflow accounting");

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t quiescent = 0;
  std::uint64_t attempts = 0;
  for (const auto& level : memo.levels) {
    hits += level.memo_hits;
    misses += level.memo_misses;
    quiescent += level.quiescent_hits;
    attempts += level.swaps_attempted;
  }
  const double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;

  cim::util::Json row = cim::util::Json::object();
  row["cities"] = static_cast<std::uint64_t>(instance.size());
  row["p"] = static_cast<std::uint64_t>(p);
  row["memo_seconds"] = memo_s;
  row["recompute_seconds"] = recompute_s;
  row["speedup_memo_vs_recompute"] =
      memo_s > 0.0 ? recompute_s / memo_s : 0.0;
  row["swaps_attempted"] = attempts;
  row["memo_hits"] = hits;
  row["memo_misses"] = misses;
  row["quiescent_hits"] = quiescent;
  row["memo_hit_rate"] = hit_rate;
  row["identical"] = true;  // the CIM_REQUIREs above enforce it
  std::printf(
      "memoization n=%zu p=%u: memo %.3fs, recompute %.3fs (%.2fx), "
      "hit rate %.2f%% of %llu attempts, %llu quiescent\n",
      instance.size(), p, memo_s, recompute_s,
      memo_s > 0.0 ? recompute_s / memo_s : 0.0, 100.0 * hit_rate,
      static_cast<unsigned long long>(attempts),
      static_cast<unsigned long long>(quiescent));
  return row;
}

cim::util::Json memoization_section(bool smoke) {
  const auto instance =
      cim::tsp::generate_clustered(smoke ? 300 : 1000, 6, 555);
  cim::util::Json rows = cim::util::Json::array();
  for (const std::uint32_t p : {3U, 8U}) {
    rows.push_back(memoization_row(instance, p));
  }
  cim::util::Json section = cim::util::Json::object();
  section["rows"] = std::move(rows);
  return section;
}

}  // namespace

int main() {
  try {
    const bool smoke = cim::util::Args::env_flag("CIMANNEAL_BENCH_SMOKE");
    const char* out_env = std::getenv("CIMANNEAL_BENCH_OUT_REUSE");
    const std::string out_path =
        out_env != nullptr ? out_env : "BENCH_reuse.json";
    cim::bench::print_header(
        "Reuse-aware memory hierarchy head-to-head",
        "DESIGN.md §16 (extension beyond the paper)");

    cim::util::Json report = cim::util::Json::object();
    report["benchmark"] = "reuse";
    report["smoke"] = smoke;
    report["warm_start"] = warm_start_section(smoke);
    report["scan"] = scan_section(smoke);
    report["memoization"] = memoization_section(smoke);
    report.save(out_path);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_reuse: %s\n", e.what());
    return 1;
  }
}
