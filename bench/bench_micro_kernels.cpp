// google-benchmark micro-kernels: the hot operations of the functional
// simulator (window MACs on both backends, write-back with noise
// injection, adder-tree reduction, swap evaluation) and the supporting
// geometry (kd-tree queries).
//
// Besides the google-benchmark suite, main() times the three variants of
// the 4-MAC swap kernel (dense rebuild-and-scan, sparse row-list rebuild,
// incremental sparse) head-to-head, plus one 800×800 write-back plane
// against the serial settled_value() loop and one Max-Cut anneal per
// Ising field path (incremental vs recompute), and writes
// BENCH_swap_kernel.json — see EXPERIMENTS.md for the format — and times
// per-epoch thread spawning
// against the persistent util::ThreadPool over an annealer-shaped epoch
// loop, writing BENCH_parallel_runtime.json. CIMANNEAL_BENCH_OUT /
// CIMANNEAL_BENCH_OUT_RUNTIME override the output paths;
// CIMANNEAL_BENCH_SMOKE=1 shrinks the sweeps for CI.
//
// Both report writers run under telemetry scopes and publish their
// per-variant results as counter events; main() exports the registry to
// BENCH_telemetry.json (+ .trace.json), path overridable via
// CIMANNEAL_BENCH_OUT_TRACE. With CIMANNEAL_TELEMETRY=OFF the files
// still appear carrying telemetry_enabled=false — and, crucially, the
// timed loops themselves contain no TELEM_* calls, so the swap timings
// are unaffected by the telemetry build flavour.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "util/thread_pool.hpp"

#include "anneal/maxcut_annealer.hpp"
#include "cim/adder_tree.hpp"
#include "cim/storage.hpp"
#include "cim/window.hpp"
#include "geo/kdtree.hpp"
#include "ising/maxcut.hpp"
#include "ising/pbm.hpp"
#include "noise/schedule.hpp"
#include "noise/sram_model.hpp"
#include "tsp/dist_cache.hpp"
#include "tsp/generator.hpp"
#include "tsp/neighbors.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace {

using cim::hw::ColIndex;

std::vector<std::uint8_t> random_image(std::uint32_t rows,
                                       std::uint32_t cols,
                                       std::uint64_t seed) {
  cim::util::Rng rng(seed);
  std::vector<std::uint8_t> image(static_cast<std::size_t>(rows) * cols);
  for (auto& w : image) w = static_cast<std::uint8_t>(rng.below(256));
  return image;
}

void BM_WindowMacFast(benchmark::State& state) {
  const auto p = static_cast<std::uint32_t>(state.range(0));
  const cim::hw::WindowShape shape = cim::hw::WindowShape::hardware(p);
  auto storage =
      cim::hw::make_fast_storage(shape.rows(), shape.cols(), nullptr, 0);
  storage->write(random_image(shape.rows(), shape.cols(), 1));
  std::vector<std::uint8_t> input(shape.rows(), 0);
  for (std::uint32_t i = 0; i < p; ++i) input[i * p + i % p] = 1;
  std::uint32_t col = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage->mac(ColIndex(col), input));
    col = (col + 1) % shape.cols();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WindowMacFast)->Arg(2)->Arg(3)->Arg(4);

void BM_WindowMacBitLevel(benchmark::State& state) {
  const auto p = static_cast<std::uint32_t>(state.range(0));
  const cim::hw::WindowShape shape = cim::hw::WindowShape::hardware(p);
  auto storage = cim::hw::make_bit_level_storage(shape.rows(), shape.cols(),
                                                 nullptr, 0);
  storage->write(random_image(shape.rows(), shape.cols(), 2));
  std::vector<std::uint8_t> input(shape.rows(), 1);
  std::uint32_t col = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage->mac(ColIndex(col), input));
    col = (col + 1) % shape.cols();
  }
}
BENCHMARK(BM_WindowMacBitLevel)->Arg(3);

void BM_WriteBackNoisy(benchmark::State& state) {
  const cim::hw::WindowShape shape = cim::hw::WindowShape::hardware(3);
  static const cim::noise::SramCellModel model;
  auto storage =
      cim::hw::make_fast_storage(shape.rows(), shape.cols(), &model, 0);
  storage->write(random_image(shape.rows(), shape.cols(), 3));
  cim::noise::SchedulePhase phase;
  phase.vdd = 0.30;
  phase.noisy_lsbs = 6;
  for (auto _ : state) {
    storage->write_back(phase);
    ++phase.epoch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          shape.weights());
}
BENCHMARK(BM_WriteBackNoisy);

void BM_AdderTreeReduce(benchmark::State& state) {
  const auto fan_in = static_cast<std::uint32_t>(state.range(0));
  cim::hw::AdderTree tree(fan_in);
  std::vector<std::uint8_t> products(fan_in, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.reduce(products));
  }
}
BENCHMARK(BM_AdderTreeReduce)->Arg(8)->Arg(15)->Arg(24);

void BM_PseudoReadDecision(benchmark::State& state) {
  static const cim::noise::SramCellModel model;
  std::uint64_t cell = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.settled_value(cell++, 3, 0.34, true));
  }
}
BENCHMARK(BM_PseudoReadDecision);

void BM_PbmSwapDelta(benchmark::State& state) {
  static const auto inst = cim::tsp::generate_uniform(1000, 7);
  cim::ising::PbmState pbm(inst, cim::tsp::Tour::identity(1000));
  cim::util::Rng rng(1);
  for (auto _ : state) {
    const auto i = static_cast<std::size_t>(rng.below(1000));
    const auto j = static_cast<std::size_t>(rng.below(1000));
    benchmark::DoNotOptimize(pbm.swap_delta(i, j));
  }
}
BENCHMARK(BM_PbmSwapDelta);

/// One fast-backend window plus the annealer's swap state (member order
/// and the p + 2 set input rows), shared by the three swap-kernel
/// variants. Every variant evaluates the same 4-MAC order swap and
/// reverts, so identically-seeded runs must produce identical delta
/// streams — checked in the JSON report.
class SwapKernelFixture {
 public:
  explicit SwapKernelFixture(std::uint32_t p)
      : p_(p), shape_(cim::hw::WindowShape::hardware(p)) {
    storage_ = cim::hw::make_fast_storage(shape_.rows(), shape_.cols(),
                                          nullptr, 0);
    storage_->write(random_image(shape_.rows(), shape_.cols(), 11));
    perm_.resize(p);
    for (std::uint32_t i = 0; i < p; ++i) perm_[i] = i;
    input_.assign(shape_.rows(), 0);
    active_.resize(p_ + 2ULL);
    rebuild_active();
  }

  std::uint32_t rows() const { return shape_.rows(); }
  std::uint32_t active_rows() const { return p_ + 2; }

  /// Legacy kernel: rebuild the dense input vector and scan every row.
  std::int64_t dense_swap(cim::util::Rng& rng) {
    const auto [i, j] = pick_pair(rng);
    const std::uint32_t k = perm_[i];
    const std::uint32_t l = perm_[j];
    rebuild_input();
    const std::int64_t before = storage_->mac(ColIndex(i * p_ + k), input_) +
                                storage_->mac(ColIndex(j * p_ + l), input_);
    std::swap(perm_[i], perm_[j]);
    rebuild_input();
    const std::int64_t after = storage_->mac(ColIndex(i * p_ + l), input_) +
                               storage_->mac(ColIndex(j * p_ + k), input_);
    std::swap(perm_[i], perm_[j]);
    return after - before;
  }

  /// Sparse MAC but the row list is rebuilt from the perm per half.
  std::int64_t sparse_swap(cim::util::Rng& rng) {
    const auto [i, j] = pick_pair(rng);
    const std::uint32_t k = perm_[i];
    const std::uint32_t l = perm_[j];
    rebuild_active();
    const std::int64_t before = storage_->mac_sparse(ColIndex(i * p_ + k), active_) +
                                storage_->mac_sparse(ColIndex(j * p_ + l), active_);
    std::swap(perm_[i], perm_[j]);
    rebuild_active();
    const std::int64_t after = storage_->mac_sparse(ColIndex(i * p_ + l), active_) +
                               storage_->mac_sparse(ColIndex(j * p_ + k), active_);
    std::swap(perm_[i], perm_[j]);
    rebuild_active();
    return after - before;
  }

  /// The production kernel: persistent row list, O(1) entry updates.
  std::int64_t incremental_swap(cim::util::Rng& rng) {
    const auto [i, j] = pick_pair(rng);
    const std::uint32_t k = perm_[i];
    const std::uint32_t l = perm_[j];
    const std::int64_t before = storage_->mac_sparse(ColIndex(i * p_ + k), active_) +
                                storage_->mac_sparse(ColIndex(j * p_ + l), active_);
    std::swap(perm_[i], perm_[j]);
    apply_entries(i, j);
    const std::int64_t after = storage_->mac_sparse(ColIndex(i * p_ + l), active_) +
                               storage_->mac_sparse(ColIndex(j * p_ + k), active_);
    std::swap(perm_[i], perm_[j]);
    apply_entries(i, j);
    return after - before;
  }

 private:
  std::pair<std::uint32_t, std::uint32_t> pick_pair(cim::util::Rng& rng) {
    std::uint32_t i = static_cast<std::uint32_t>(rng.below(p_));
    std::uint32_t j = static_cast<std::uint32_t>(rng.below(p_ - 1));
    if (j >= i) ++j;
    if (i > j) std::swap(i, j);
    return {i, j};
  }

  void rebuild_input() {
    input_.assign(shape_.rows(), 0);
    for (std::uint32_t i = 0; i < p_; ++i) input_[i * p_ + perm_[i]] = 1;
    input_[shape_.own_rows() + perm_.back()] = 1;
    input_[shape_.own_rows() + shape_.p_prev + perm_.front()] = 1;
  }

  void rebuild_active() {
    for (std::uint32_t i = 0; i < p_; ++i) active_[i] = i * p_ + perm_[i];
    active_[p_] = shape_.own_rows() + perm_.back();
    active_[p_ + 1] = shape_.own_rows() + shape_.p_prev + perm_.front();
  }

  void apply_entries(std::uint32_t i, std::uint32_t j) {
    active_[i] = i * p_ + perm_[i];
    active_[j] = j * p_ + perm_[j];
    active_[p_] = shape_.own_rows() + perm_.back();
    active_[p_ + 1] = shape_.own_rows() + shape_.p_prev + perm_.front();
  }

  std::uint32_t p_;
  cim::hw::WindowShape shape_;
  std::unique_ptr<cim::hw::WeightStorage> storage_;
  std::vector<std::uint32_t> perm_;
  std::vector<std::uint8_t> input_;
  std::vector<std::uint32_t> active_;
};

void BM_SwapKernelDense(benchmark::State& state) {
  SwapKernelFixture fixture(static_cast<std::uint32_t>(state.range(0)));
  cim::util::Rng rng(21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.dense_swap(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SwapKernelDense)->Arg(4)->Arg(8)->Arg(16);

void BM_SwapKernelSparse(benchmark::State& state) {
  SwapKernelFixture fixture(static_cast<std::uint32_t>(state.range(0)));
  cim::util::Rng rng(21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.sparse_swap(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SwapKernelSparse)->Arg(4)->Arg(8)->Arg(16);

void BM_SwapKernelIncremental(benchmark::State& state) {
  SwapKernelFixture fixture(static_cast<std::uint32_t>(state.range(0)));
  cim::util::Rng rng(21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.incremental_swap(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SwapKernelIncremental)->Arg(4)->Arg(8)->Arg(16);

void BM_KdTreeNearest(benchmark::State& state) {
  const auto inst = cim::tsp::generate_uniform(
      static_cast<std::size_t>(state.range(0)), 9);
  const cim::geo::KdTree tree(inst.coords());
  cim::util::Rng rng(2);
  for (auto _ : state) {
    const cim::geo::Point q{rng.uniform(0.0, 10000.0),
                            rng.uniform(0.0, 10000.0)};
    benchmark::DoNotOptimize(tree.nearest(q));
  }
}
BENCHMARK(BM_KdTreeNearest)->Arg(1000)->Arg(100000);

// The reuse-layer smoke row: candidate-scan distance traffic of a
// perturbed re-solve routed through the sharded DistanceCache. Each
// iteration replays every city's k-nearest scan (the window-build /
// exact-delta access pattern); after the first lap the pair population is
// stable, so the steady-state hit rate — exported as the `hit_rate`
// counter — is what the annealer's repeated exact-distance queries see.
void BM_DistanceCacheRescan(benchmark::State& state) {
  const auto inst = cim::tsp::generate_clustered(
      static_cast<std::size_t>(state.range(0)), 8, 21);
  const cim::tsp::NeighborLists neighbors(inst, 10);
  cim::tsp::DistanceCache cache(inst);
  for (auto _ : state) {
    long long sum = 0;
    for (std::size_t c = 0; c < inst.size(); ++c) {
      const auto city = static_cast<cim::tsp::CityId>(c);
      for (const cim::tsp::CityId cand : neighbors.of(city)) {
        sum += cache.distance(city, cand);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  const auto& stats = cache.stats();
  const double total = static_cast<double>(stats.hits + stats.misses);
  state.counters["hit_rate"] =
      total > 0.0 ? static_cast<double>(stats.hits) / total : 0.0;
  state.counters["bytes_touched"] = static_cast<double>(stats.bytes_touched);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.size()) * 10);
}
BENCHMARK(BM_DistanceCacheRescan)->Arg(2000);

/// Times FastStorage write-backs of one 800×800 plane (the Max-Cut
/// annealer's plane at n = 800) through every write-back of the default
/// schedule, against a serial SramCellModel::settled_value() loop over the
/// same noisy cells. Aborts unless the two count the same flips. The
/// plane's write() is timed too (`write_ns_per_weight`): it builds the
/// anti-preferred mask the write-backs reuse, so the work hoisted out of
/// them is reported rather than hidden.
cim::util::Json write_back_report() {
  constexpr std::uint32_t kN = 800;
  constexpr std::uint32_t kBits = 8;
  const cim::noise::SramCellModel model;
  const auto image = random_image(kN, kN, 5);
  auto storage = cim::hw::make_fast_storage(kN, kN, &model, 0, kBits);
  // Start the shared pool first, so the write timing holds no thread
  // creation.
  const std::size_t pool_width = cim::util::ThreadPool::shared().width();
  cim::util::Timer write_timer;
  storage->write(image);
  const double write_ns =
      write_timer.seconds() * 1e9 / static_cast<double>(image.size());
  const cim::noise::AnnealSchedule schedule;
  std::vector<cim::noise::SchedulePhase> phases;
  for (std::size_t it = 0; it < schedule.total_iterations(); ++it) {
    if (schedule.at(it).write_back) phases.push_back(schedule.at(it));
  }

  cim::util::Timer timer;
  for (const auto& phase : phases) storage->write_back(phase);
  const double seconds = timer.seconds();

  cim::util::Timer serial_timer;
  std::uint64_t serial_flips = 0;
  std::uint64_t noisy_cells = 0;
  for (const auto& phase : phases) {
    const std::uint32_t noisy = std::min(phase.noisy_lsbs, kBits);
    for (std::size_t w = 0; w < image.size(); ++w) {
      for (std::uint32_t b = 0; b < noisy; ++b) {
        const bool bit = ((image[w] >> b) & 1U) != 0;
        if (model.settled_value(w * kBits + b, phase.epoch, phase.vdd, bit) !=
            bit) {
          ++serial_flips;
        }
      }
    }
    noisy_cells += image.size() * noisy;
  }
  const double serial_seconds = serial_timer.seconds();
  const std::uint64_t flips = storage->counters().pseudo_read_flips;
  CIM_REQUIRE(flips == serial_flips,
              "write-back flip count differs from the settled_value() loop");

  const double cells = static_cast<double>(noisy_cells);
  const double ns = cells > 0.0 ? seconds * 1e9 / cells : 0.0;
  const double serial_ns = cells > 0.0 ? serial_seconds * 1e9 / cells : 0.0;
  TELEM_COUNTER_EVENT("bench.write_back", {"ns_per_noisy_cell", ns},
                      {"serial_ns_per_noisy_cell", serial_ns},
                      {"write_ns_per_weight", write_ns});
  cim::util::Json row = cim::util::Json::object();
  row["plane_rows"] = static_cast<std::uint64_t>(kN);
  row["plane_cols"] = static_cast<std::uint64_t>(kN);
  row["write_backs"] = static_cast<std::uint64_t>(phases.size());
  row["noisy_cells"] = noisy_cells;
  row["pseudo_read_flips"] = flips;
  row["pool_width"] = static_cast<std::uint64_t>(pool_width);
  row["write_ns_per_weight"] = write_ns;
  row["seconds"] = seconds;
  row["ns_per_noisy_cell"] = ns;
  row["serial_ns_per_noisy_cell"] = serial_ns;
  row["speedup_vs_serial"] = ns > 0.0 ? serial_ns / ns : 0.0;
  std::printf(
      "write_back %ux%u, %zu write-backs: %.2f ns per noisy cell "
      "(serial settled_value loop %.2f ns, %.1fx); write %.2f ns per "
      "weight\n",
      kN, kN, phases.size(), ns, serial_ns, ns > 0.0 ? serial_ns / ns : 0.0,
      write_ns);
  return row;
}

/// Times one Max-Cut anneal (signed G(1000, 1%)) per Ising field path:
/// the incremental local fields against the column-MAC recompute oracle
/// (dense kernel). Aborts unless both end in the same spins and
/// StorageCounters.
cim::util::Json ising_update_report(bool smoke) {
  constexpr std::size_t kN = 1000;
  const auto problem = cim::ising::random_maxcut(kN, 0.01, 41, 5, true);
  cim::anneal::MaxCutConfig config;
  if (smoke) {
    config.schedule.total_iterations = 100;
    config.schedule.iterations_per_step = 25;
  }
  const auto run = [&](bool memoize) {
    config.memoize_partial_sums = memoize;
    cim::util::Timer timer;
    auto result = cim::anneal::MaxCutAnnealer(config).solve(problem);
    return std::pair<double, cim::anneal::MaxCutResult>{timer.seconds(),
                                                        std::move(result)};
  };
  const auto [incremental_s, incremental] = run(true);
  const auto [recompute_s, recompute] = run(false);
  CIM_REQUIRE(incremental.spins == recompute.spins &&
                  incremental.storage == recompute.storage,
              "incremental fields diverge from the column-MAC recompute");

  const auto updates = static_cast<double>(incremental.sweeps * kN);
  const double incremental_ns = incremental_s * 1e9 / updates;
  const double recompute_ns = recompute_s * 1e9 / updates;
  TELEM_COUNTER_EVENT("bench.ising_update",
                      {"incremental_ns_per_update", incremental_ns},
                      {"recompute_ns_per_update", recompute_ns});
  cim::util::Json row = cim::util::Json::object();
  row["vertices"] = static_cast<std::uint64_t>(kN);
  row["edges"] = static_cast<std::uint64_t>(problem.edges().size());
  row["sweeps"] = static_cast<std::uint64_t>(incremental.sweeps);
  row["flips"] = static_cast<std::uint64_t>(incremental.flips);
  row["memo_hits"] = static_cast<std::uint64_t>(incremental.memo_hits);
  row["incremental_ns_per_update"] = incremental_ns;
  row["recompute_ns_per_update"] = recompute_ns;
  row["speedup_incremental_vs_recompute"] =
      incremental_ns > 0.0 ? recompute_ns / incremental_ns : 0.0;
  std::printf(
      "ising_update maxcut n=%zu: incremental %.1f ns, recompute %.1f ns "
      "per spin update (%.2fx)\n",
      kN, incremental_ns, recompute_ns,
      incremental_ns > 0.0 ? recompute_ns / incremental_ns : 0.0);
  return row;
}

/// Times the three swap-kernel variants head-to-head over identical swap
/// sequences and writes BENCH_swap_kernel.json, with the write-back and
/// Ising-update rows beside them. Aborts if the variants' accumulated energy deltas
/// disagree (they evaluate the same swaps on the same weights, so any
/// divergence is a kernel bug).
void write_swap_kernel_report() {
  TELEM_SCOPE("bench.swap_kernel");
  const bool smoke = cim::util::Args::env_flag("CIMANNEAL_BENCH_SMOKE");
  const char* out_env = std::getenv("CIMANNEAL_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_swap_kernel.json";
  const std::vector<std::uint32_t> scales =
      smoke ? std::vector<std::uint32_t>{4}
            : std::vector<std::uint32_t>{4, 8, 16};
  const std::size_t iterations = smoke ? 20000 : 200000;

  cim::util::Json report = cim::util::Json::object();
  report["benchmark"] = "swap_kernel";
  report["backend"] = "fast";
  report["smoke"] = smoke;
  report["iterations_per_variant"] = static_cast<std::uint64_t>(iterations);
  cim::util::Json rows = cim::util::Json::array();

  for (const std::uint32_t p : scales) {
    // One fixture + one RNG per variant: each variant reverts every swap,
    // so identically-seeded runs draw the exact same (i, j) sequence.
    SwapKernelFixture dense_fx(p), sparse_fx(p), incr_fx(p);
    cim::util::Rng dense_rng(33), sparse_rng(33), incr_rng(33);
    const auto time_variant = [iterations](auto&& step) {
      std::int64_t checksum = 0;
      for (std::size_t it = 0; it < iterations / 10 + 1; ++it) {
        checksum += step();  // warm-up
      }
      cim::util::Timer timer;
      for (std::size_t it = 0; it < iterations; ++it) {
        checksum += step();
      }
      const double ns = timer.seconds() * 1e9 /
                        static_cast<double>(iterations);
      return std::pair<double, std::int64_t>{ns, checksum};
    };
    const auto [dense_ns, dense_sum] =
        time_variant([&] { return dense_fx.dense_swap(dense_rng); });
    const auto [sparse_ns, sparse_sum] =
        time_variant([&] { return sparse_fx.sparse_swap(sparse_rng); });
    const auto [incr_ns, incr_sum] =
        time_variant([&] { return incr_fx.incremental_swap(incr_rng); });
    CIM_REQUIRE(dense_sum == sparse_sum && dense_sum == incr_sum,
                "swap-kernel variants disagree on energy deltas");

    TELEM_COUNTER_ADD("bench.swap_kernel.swaps_timed", 4 * iterations);
    TELEM_COUNTER_EVENT("bench.swap_kernel",
                        {"p", static_cast<double>(p)},
                        {"dense_ns_per_swap", dense_ns},
                        {"sparse_ns_per_swap", sparse_ns},
                        {"incremental_ns_per_swap", incr_ns});

    cim::util::Json row = cim::util::Json::object();
    row["p"] = static_cast<std::uint64_t>(p);
    row["window_rows"] = static_cast<std::uint64_t>(dense_fx.rows());
    row["active_rows"] = static_cast<std::uint64_t>(dense_fx.active_rows());
    row["dense_ns_per_swap"] = dense_ns;
    row["sparse_ns_per_swap"] = sparse_ns;
    row["incremental_ns_per_swap"] = incr_ns;
    row["speedup_sparse_vs_dense"] = sparse_ns > 0.0 ? dense_ns / sparse_ns
                                                     : 0.0;
    row["speedup_incremental_vs_dense"] =
        incr_ns > 0.0 ? dense_ns / incr_ns : 0.0;
    rows.push_back(std::move(row));
    std::printf(
        "swap_kernel p=%u rows=%u: dense %.1f ns, sparse %.1f ns, "
        "incremental %.1f ns (%.2fx)\n",
        p, dense_fx.rows(), dense_ns, sparse_ns, incr_ns,
        incr_ns > 0.0 ? dense_ns / incr_ns : 0.0);
  }
  report["scales"] = std::move(rows);
  report["write_back"] = write_back_report();
  report["ising_update"] = ising_update_report(smoke);
  report.save(out_path);
  std::printf("wrote %s\n", out_path.c_str());
}

/// An annealer-shaped epoch workload: a bank of independent swap-kernel
/// slots, each with its own persistent RNG stream. One epoch updates all
/// slots on T tasks (task t takes slots t, t+T, …), exactly like the
/// color-parallel phase of the clustered annealer. Because every slot's
/// swap sequence is a pure function of its own RNG, the accumulated
/// checksum is identical for any task count and any scheduling backend.
class EpochWorkload {
 public:
  EpochWorkload(std::size_t slots, std::uint32_t p, std::size_t swaps)
      : swaps_per_slot_(swaps) {
    slots_.reserve(slots);
    for (std::size_t s = 0; s < slots; ++s) {
      slots_.push_back(std::make_unique<SwapKernelFixture>(p));
      rngs_.emplace_back(0x9e3779b9ULL + s);
      sums_.push_back(0);
    }
  }

  std::size_t slots() const { return slots_.size(); }

  void run_slot(std::size_t s) {
    std::int64_t sum = 0;
    for (std::size_t it = 0; it < swaps_per_slot_; ++it) {
      sum += slots_[s]->incremental_swap(rngs_[s]);
    }
    sums_[s] += sum;
  }

  void run_strided(std::size_t task, std::size_t tasks) {
    for (std::size_t s = task; s < slots_.size(); s += tasks) run_slot(s);
  }

  std::int64_t checksum() const {
    std::int64_t sum = 0;
    for (const std::int64_t s : sums_) sum += s;
    return sum;
  }

 private:
  std::size_t swaps_per_slot_;
  std::vector<std::unique_ptr<SwapKernelFixture>> slots_;
  std::vector<cim::util::Rng> rngs_;
  std::vector<std::int64_t> sums_;
};

/// Times the per-epoch-spawn baseline against the persistent ThreadPool
/// over the same epoch loop and writes BENCH_parallel_runtime.json. Both
/// variants run the identical workload (checked via checksum), and the
/// pool's threads_created() counter must not grow across the epoch loop —
/// the whole point of the runtime is zero thread creations per epoch.
void write_parallel_runtime_report() {
  TELEM_SCOPE("bench.parallel_runtime");
  const bool smoke = cim::util::Args::env_flag("CIMANNEAL_BENCH_SMOKE");
  const char* out_env = std::getenv("CIMANNEAL_BENCH_OUT_RUNTIME");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_parallel_runtime.json";
  const std::size_t kSlots = smoke ? 16 : 64;
  const std::size_t kSwapsPerSlot = smoke ? 8 : 16;
  const std::size_t kEpochs = smoke ? 40 : 400;
  const std::vector<std::size_t> task_counts = smoke
                                                   ? std::vector<std::size_t>{2, 8}
                                                   : std::vector<std::size_t>{2, 4, 8};

  cim::util::Json report = cim::util::Json::object();
  report["benchmark"] = "parallel_runtime";
  report["smoke"] = smoke;
  report["slots"] = static_cast<std::uint64_t>(kSlots);
  report["swaps_per_slot"] = static_cast<std::uint64_t>(kSwapsPerSlot);
  report["epochs"] = static_cast<std::uint64_t>(kEpochs);
  cim::util::Json rows = cim::util::Json::array();

  for (const std::size_t tasks : task_counts) {
    // Fresh, identically-seeded workloads per variant: the checksum
    // comparison below then proves both executed the same swaps.
    EpochWorkload spawn_work(kSlots, 4, kSwapsPerSlot);
    EpochWorkload pool_work(kSlots, 4, kSwapsPerSlot);

    // Baseline: what the annealer used to do — T fresh threads per epoch.
    cim::util::Timer spawn_timer;
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      std::vector<std::thread> threads;  // NOLINT(raw-thread): this IS the spawn baseline being measured
      threads.reserve(tasks);
      for (std::size_t t = 0; t < tasks; ++t) {
        threads.emplace_back(
            [&spawn_work, t, tasks] { spawn_work.run_strided(t, tasks); });
      }
      for (auto& th : threads) th.join();
    }
    const double spawn_ns =
        spawn_timer.seconds() * 1e9 / static_cast<double>(kEpochs);

    // The persistent pool, sized like color_threads=tasks. Constructed
    // outside the timed loop — exactly how the annealer holds the shared
    // pool across colors, epochs, and levels.
    cim::util::ThreadPool pool(tasks);
    const std::uint64_t created_before = pool.threads_created();
    cim::util::Timer pool_timer;
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      pool.run(tasks,
               [&pool_work, tasks](std::size_t t) {
                 pool_work.run_strided(t, tasks);
               });
    }
    const double pool_ns =
        pool_timer.seconds() * 1e9 / static_cast<double>(kEpochs);
    const std::uint64_t created_during = pool.threads_created() - created_before;

    CIM_REQUIRE(spawn_work.checksum() == pool_work.checksum(),
                "spawn and pool epoch variants disagree on swap deltas");
    CIM_REQUIRE(created_during == 0,
                "ThreadPool created threads inside the epoch loop");

    TELEM_COUNTER_ADD("bench.parallel_runtime.epochs_timed", 2 * kEpochs);
    TELEM_COUNTER_EVENT("bench.parallel_runtime",
                        {"tasks", static_cast<double>(tasks)},
                        {"spawn_ns_per_epoch", spawn_ns},
                        {"pool_ns_per_epoch", pool_ns});

    cim::util::Json row = cim::util::Json::object();
    row["tasks"] = static_cast<std::uint64_t>(tasks);
    row["spawn_ns_per_epoch"] = spawn_ns;
    row["pool_ns_per_epoch"] = pool_ns;
    row["speedup_pool_vs_spawn"] = pool_ns > 0.0 ? spawn_ns / pool_ns : 0.0;
    row["pool_threads_created_during_epochs"] = created_during;
    row["checksum"] = static_cast<long long>(pool_work.checksum());
    rows.push_back(std::move(row));
    std::printf(
        "parallel_runtime tasks=%zu: spawn %.1f ns/epoch, pool %.1f ns/epoch "
        "(%.2fx), threads created in loop: %llu\n",
        tasks, spawn_ns, pool_ns, pool_ns > 0.0 ? spawn_ns / pool_ns : 0.0,
        static_cast<unsigned long long>(created_during));
  }
  report["task_counts"] = std::move(rows);
  report.save(out_path);
  std::printf("wrote %s\n", out_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_swap_kernel_report();
  write_parallel_runtime_report();

  // Export the registry so CI archives a bench telemetry artifact. The
  // snapshot lands at CIMANNEAL_BENCH_OUT_TRACE (default
  // BENCH_telemetry.json), the Chrome trace next to it.
  const char* telem_env = std::getenv("CIMANNEAL_BENCH_OUT_TRACE");
  const std::string telem_path =
      telem_env != nullptr ? telem_env : "BENCH_telemetry.json";
  std::string trace_path = telem_path;
  const std::string suffix = ".json";
  if (trace_path.size() > suffix.size() &&
      trace_path.compare(trace_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    trace_path.resize(trace_path.size() - suffix.size());
  }
  trace_path += ".trace.json";
  const auto& telem = cim::util::telemetry::Registry::global();
  telem.save_snapshot(telem_path);
  telem.save_trace(trace_path);
  std::printf("wrote %s and %s\n", telem_path.c_str(), trace_path.c_str());
  return 0;
}
