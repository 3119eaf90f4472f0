// End-to-end benchmark program for the workloads of bench/e2e/README.md.
//
//   cimbench --workload tsp-paper --seed 1 --seconds 35 --trace 0
//            --out-dir build/bench-e2e/out
//
// Untraced runs time whole front-door calls (core::CimSolver::solve,
// solve_maxcut, solve_ising) from outside with steady_clock, one closed-
// loop client repeating whole rounds of the workload, and check every
// answer. --trace 1 spends half the budget untraced, then replays the same
// calls piecewise through each module's public functions in the order
// CimSolver makes them, recording spans, to report per-layer metrics and
// write <workload>.trace.json. The last stdout line is one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "anneal/clustered_annealer.hpp"
#include "anneal/generic_annealer.hpp"
#include "anneal/kernel_config.hpp"
#include "anneal/maxcut_annealer.hpp"
#include "cluster/hierarchy.hpp"
#include "core/solver.hpp"
#include "heuristics/reference.hpp"
#include "ising/partition.hpp"
#include "ppa/report.hpp"
#include "ppa/timing.hpp"
#include "qubo/io.hpp"
#include "store/warm_start.hpp"
#include "tsp/fingerprint.hpp"
#include "tsp/neighbors.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"
#include "host_speed.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using cim::bench::e2e::Call;
using cim::bench::e2e::CallKind;
using cim::bench::e2e::HostSpeed;
using cim::bench::e2e::IsingFamily;
using cim::bench::e2e::Workload;
using cim::util::Json;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FNV-1a over the words of an answer: equal digests mean equal answers
/// (tour or spins, objective, hardware counters, modelled PPA).
class Digest {
 public:
  void add(std::int64_t v) {
    hash_ = (hash_ ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
  }
  void add(double v) { add(std::bit_cast<std::int64_t>(v)); }
  template <class Range>
  void add_all(const Range& values) {
    for (const auto v : values) add(static_cast<std::int64_t>(v));
  }
  void add(const cim::hw::StorageCounters& s) {
    for (const std::uint64_t v : {s.macs, s.mac_bit_reads, s.writeback_events,
                                  s.writeback_bits, s.pseudo_read_flips}) {
      add(static_cast<std::int64_t>(v));
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Outcome of one front-door call as the benchmark sees it.
struct CallResult {
  double seconds = 0.0;  ///< wall time of the call, timed outside it
  /// Host slowdown around an untraced call: the mean of the host-speed
  /// gauges just before and just after it.
  double host_slowdown = 1.0;
  std::string failure;  ///< first failed output check; empty when correct
  std::uint64_t digest = 0;
  double objective = 0.0;  ///< tour length, best cut or best energy
  double reference = 0.0;  ///< in-call TSP reference length (0 = none)
  double quality = 0.0;    ///< colourings: violations; oracles: 1 on a hit
  double sim_latency_us = 0.0;
  double sim_energy_uj = 0.0;
};

void expect(CallResult& result, bool ok, const char* check) {
  if (!ok && result.failure.empty()) result.failure = check;
}

cim::core::SolverConfig call_config(const Workload& w, const Call& call,
                                    const std::string& store_dir) {
  cim::core::SolverConfig config = w.config;
  config.seed = call.solver_seed;
  if (w.uses_store) config.warm_start_dir = store_dir;
  return config;
}

CallResult check_tsp(const Workload& w, const Call& call,
                     const cim::core::SolveOutcome& out) {
  const cim::tsp::Instance& instance = w.tsp[call.item];
  CallResult r;
  const cim::tsp::Tour& tour = out.anneal.tour;
  const bool valid = tour.is_valid(instance.size());
  expect(r, valid, "tour is not a permutation of the cities");
  expect(r, valid && tour.length(instance) == out.tour_length,
         "recomputed tour length differs from tour_length");
  expect(r, out.ppa.has_value() == w.config.compute_ppa, "PPA report");
  expect(r, out.reference_length.has_value() == w.config.compute_reference,
         "reference length");
  expect(r, call.pass != 2 || out.warm_started,
         "repeat solve missed the warm-start store");
  r.objective = static_cast<double>(out.tour_length);
  r.reference = static_cast<double>(out.reference_length.value_or(0));
  Digest d;
  d.add_all(tour.order());
  d.add(static_cast<std::int64_t>(out.tour_length));
  d.add(r.reference);
  d.add(out.anneal.hw.storage);
  d.add(static_cast<std::int64_t>(out.anneal.hw.update_cycles));
  if (out.ppa) {
    r.sim_latency_us = out.ppa->latency.total().nanoseconds() / 1e3;
    r.sim_energy_uj = out.ppa->energy.total().picojoules() / 1e6;
    d.add(r.sim_latency_us);
    d.add(r.sim_energy_uj);
  }
  r.digest = d.value();
  return r;
}

/// Modelled latency and energy of a Max-Cut/Ising solve from the 16 nm
/// constants the TSP PPA report uses: update cycles at the MAC clock, two
/// bit operations (NOR product + adder) per weight bit read, one write per
/// written-back bit. Transfers and leakage are not modelled for these
/// macros.
void ising_sim(std::uint64_t update_cycles,
               const cim::hw::StorageCounters& storage, CallResult& r) {
  const cim::ppa::TechnologyParams& tech = cim::ppa::tech16nm();
  const cim::ppa::CycleCounts cycles{static_cast<double>(update_cycles), 0.0};
  r.sim_latency_us =
      cim::ppa::latency_from_cycles(cycles, tech).total().nanoseconds() / 1e3;
  const double femtojoules =
      2.0 * static_cast<double>(storage.mac_bit_reads) * tech.bit_op_fj +
      static_cast<double>(storage.writeback_bits) * tech.write_bit_fj;
  r.sim_energy_uj = femtojoules * 1e-9;
}

CallResult check_maxcut(const Workload& w, const Call& call,
                        const cim::core::MaxCutOutcome& out) {
  const cim::ising::MaxCutProblem& problem = w.maxcut[call.item].problem;
  CallResult r;
  const bool sized = out.anneal.spins.size() == problem.size();
  expect(r, sized, "spin vector has the wrong size");
  expect(r, sized && problem.cut_value(out.anneal.spins) == out.anneal.cut,
         "cut_value(spins) differs from the reported cut");
  expect(r, out.cut >= out.anneal.cut, "best cut is below the final cut");
  r.objective = static_cast<double>(out.cut);
  ising_sim(out.anneal.update_cycles, out.anneal.storage, r);
  Digest d;
  d.add_all(out.anneal.spins);
  d.add(static_cast<std::int64_t>(out.cut));
  d.add(out.anneal.storage);
  d.add(static_cast<std::int64_t>(out.anneal.update_cycles));
  r.digest = d.value();
  return r;
}

CallResult check_ising(const Workload& w, const Call& call,
                       const cim::core::IsingOutcome& out) {
  const cim::bench::e2e::IsingItem& item = w.ising[call.item];
  CallResult r;
  const auto& spins = out.anneal.best_spins;
  const bool sized = spins.size() == item.model.size();
  expect(r, sized, "spin vector has the wrong size");
  expect(r,
         sized && std::abs(item.model.energy(spins) - out.energy) <=
                      1e-9 * std::max(1.0, std::abs(out.energy)),
         "model.energy(best_spins) differs from the reported energy");
  r.objective = out.energy;
  if (sized && item.coloring_code) {
    const auto decoded = item.coloring_code->decode(*item.coloring, spins);
    r.quality = item.family == IsingFamily::kPlantedColoring
                    ? static_cast<double>(decoded.one_hot_violations +
                                          decoded.conflicts)
                    : (decoded.feasible ? 1.0 : 0.0);
  } else if (sized && item.knapsack_code) {
    const auto decoded = item.knapsack_code->decode(*item.knapsack, spins);
    r.quality =
        decoded.feasible && decoded.value == item.knapsack_best ? 1.0 : 0.0;
  }
  ising_sim(out.anneal.update_cycles, out.anneal.storage, r);
  Digest d;
  d.add_all(spins);
  d.add(static_cast<std::int64_t>(out.energy_hw));
  d.add(out.anneal.storage);
  d.add(static_cast<std::int64_t>(out.anneal.update_cycles));
  r.digest = d.value();
  return r;
}

/// One untraced front-door call, timed from outside.
CallResult front_door_call(const Workload& w, const Call& call,
                           const std::string& store_dir) {
  const cim::core::CimSolver solver(call_config(w, call, store_dir));
  CallResult r;
  try {
    const Clock::time_point start = Clock::now();
    switch (call.kind) {
      case CallKind::kTsp: {
        const auto out = solver.solve(w.tsp[call.item]);
        const double seconds = since(start);
        r = check_tsp(w, call, out);
        r.seconds = seconds;
        break;
      }
      case CallKind::kMaxCut: {
        const auto out = solver.solve_maxcut(w.maxcut[call.item].problem);
        const double seconds = since(start);
        r = check_maxcut(w, call, out);
        r.seconds = seconds;
        break;
      }
      case CallKind::kIsing: {
        const auto out = solver.solve_ising(w.ising[call.item].model);
        const double seconds = since(start);
        r = check_ising(w, call, out);
        r.seconds = seconds;
        break;
      }
    }
  } catch (const std::exception& e) {
    r.failure = std::string("exception: ") + e.what();
  }
  return r;
}

// ---------------------------------------------------------------- tracing

/// In-memory span log: name, start, end, parent span and call id. Probe
/// spans time a layer standalone, outside the call, and are excluded from
/// the call's sums.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    int call = -1;
    bool probe = false;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, bool probe)
        : tracer_(tracer), id_(tracer.open(std::move(name), probe)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  Scope scope(std::string name, bool probe = false) {
    return Scope(*this, std::move(name), probe);
  }

  int call = -1;  ///< call id stamped on spans opened from now on
  const std::vector<Span>& spans() const { return spans_; }

  Json chrome_trace() const {
    Json events = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json e = Json::object();
      e["name"] = s.name;
      e["cat"] = s.probe ? "probe" : "call";
      e["ph"] = "X";
      e["ts"] = s.start_s * 1e6;
      e["dur"] = (s.end_s - s.start_s) * 1e6;
      e["pid"] = 1;
      e["tid"] = 1;
      Json args = Json::object();
      args["id"] = static_cast<long long>(i);
      args["parent"] = s.parent;
      args["call"] = s.call;
      e["args"] = std::move(args);
      events.push_back(std::move(e));
    }
    Json out = Json::object();
    out["traceEvents"] = std::move(events);
    out["displayTimeUnit"] = "ms";
    return out;
  }

 private:
  int open(std::string name, bool probe) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), since(epoch_), 0.0, parent, call,
                      probe});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = since(epoch_);
    open_.pop_back();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Per-layer sums of counts and times over the traced calls; a metric is a
/// ratio of two sums.
class LayerSums {
 public:
  void add(const std::string& name, double value) {
    Entry& e = sums_[name];
    e.sum += value;
    e.count += 1;
  }
  double sum(const std::string& name) const {
    const auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second.sum;
  }
  double count(const std::string& name) const {
    const auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second.count;
  }
  /// Mean per recorded value; 0 when the layer never ran.
  double mean(const std::string& name) const {
    return ratio(sum(name), count(name));
  }
  static double ratio(double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  }

 private:
  struct Entry {
    double sum = 0.0;
    double count = 0.0;
  };
  std::map<std::string, Entry> sums_;
};

void add_storage(LayerSums& layers, const cim::hw::StorageCounters& s,
                 std::uint64_t update_cycles) {
  layers.add("cim.macs", static_cast<double>(s.macs));
  layers.add("cim.mac_bit_reads", static_cast<double>(s.mac_bit_reads));
  layers.add("cim.writeback_bits", static_cast<double>(s.writeback_bits));
  layers.add("cim.pseudo_read_flips",
             static_cast<double>(s.pseudo_read_flips));
  layers.add("cim.update_cycles", static_cast<double>(update_cycles));
}

/// Duration of the most recently opened span.
double last_span_seconds(const Tracer& tracer) {
  const auto& last = tracer.spans().back();
  return last.end_s - last.start_s;
}

/// CimSolver::solve, replayed piecewise with the solver's own config.
CallResult traced_tsp(const Workload& w, const Call& call,
                      const cim::core::SolverConfig& config, Tracer& tracer,
                      LayerSums& layers) {
  CIM_REQUIRE(config.replicas == 1 &&
                  config.post_refine == cim::core::PostRefine::kNone,
              "the traced replay covers single-replica, unrefined solves");
  const cim::tsp::Instance& instance = w.tsp[call.item];
  const cim::core::CimSolver solver(config);
  cim::core::SolveOutcome out;
  cim::anneal::AnnealerConfig base = solver.annealer_config();
  double anneal_s = 0.0;
  {
    const auto call_span = tracer.scope("core.solve");
    std::optional<cim::store::WarmStartStore> store;
    std::string key;
    if (w.uses_store) {
      {
        const auto s = tracer.scope("tsp.fingerprint");
        key = cim::tsp::instance_fingerprint(instance);
      }
      const auto s = tracer.scope("store.lookup");
      store.emplace(config.warm_start_dir);
      if (auto order = store->load_tour(key, instance.size())) {
        base.initial_order = std::move(*order);
        out.warm_started = true;
      }
    }
    {
      const auto s = tracer.scope("anneal.solve");
      out.anneal = cim::anneal::ClusteredAnnealer(base).solve(instance);
    }
    anneal_s = last_span_seconds(tracer);
    out.hardware_length = out.anneal.length;
    out.tour_length = out.anneal.length;
    if (store) {
      const auto s = tracer.scope("store.write");
      const auto order = out.anneal.tour.order();
      store->store_tour(key, order, out.tour_length);
      out.warm_start = store->stats();
    }
    if (config.compute_reference) {
      const auto s = tracer.scope("heuristics.reference");
      const auto ref = cim::heuristics::compute_reference(instance);
      out.reference_length = ref.length;
      if (ref.length > 0) {
        out.optimal_ratio = cim::tsp::optimal_ratio(out.tour_length,
                                                    ref.length);
      }
    }
    if (config.compute_ppa) {
      const auto s = tracer.scope("ppa.report");
      out.ppa = cim::ppa::measured_report(
          solver.design_point(instance.name(), instance.size()),
          out.anneal.hw, out.anneal.hierarchy_depth);
    }
  }
  // Probes: layers the annealer runs internally, timed standalone.
  {
    const auto s = tracer.scope("cluster.hierarchy", true);
    const cim::cluster::Hierarchy hierarchy(instance, base.clustering);
  }
  const double hierarchy_s = last_span_seconds(tracer);
  {
    const auto s = tracer.scope("tsp.neighbors", true);
    const cim::tsp::NeighborLists lists(instance, 10);
  }
  if (!w.uses_store) {
    const auto s = tracer.scope("tsp.fingerprint", true);
    static_cast<void>(cim::tsp::instance_fingerprint(instance));
  }

  std::uint64_t attempted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t uphill = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_total = 0;
  std::uint64_t dcache_hits = 0;
  std::uint64_t dcache_total = 0;
  for (const auto& level : out.anneal.levels) {
    attempted += level.swaps_attempted;
    accepted += level.swaps_accepted;
    uphill += level.uphill_accepted;
    memo_hits += level.memo_hits;
    memo_total += level.memo_hits + level.memo_misses;
    dcache_hits += level.dcache_hits;
    dcache_total += level.dcache_hits + level.dcache_misses;
  }
  const double self_s = std::max(0.0, anneal_s - hierarchy_s);
  layers.add("anneal.self_s", self_s);
  layers.add("anneal.swaps", static_cast<double>(attempted));
  layers.add("anneal.accepted", static_cast<double>(accepted));
  layers.add("anneal.uphill", static_cast<double>(uphill));
  layers.add("anneal.memo_hits", static_cast<double>(memo_hits));
  layers.add("anneal.memo_total", static_cast<double>(memo_total));
  layers.add("anneal.dcache_hits", static_cast<double>(dcache_hits));
  layers.add("anneal.dcache_total", static_cast<double>(dcache_total));
  layers.add("cluster.depth",
             static_cast<double>(out.anneal.hierarchy_depth));
  layers.add("cim.self_s", self_s);
  add_storage(layers, out.anneal.hw.storage, out.anneal.hw.update_cycles);
  if (out.warm_start) {
    const auto& st = *out.warm_start;
    layers.add("store.hits", static_cast<double>(st.hits));
    layers.add("store.lookups", static_cast<double>(st.hits + st.misses));
    layers.add("store.stores", static_cast<double>(st.stores));
    layers.add("store.kept", static_cast<double>(st.kept));
  }
  return check_tsp(w, call, out);
}

/// CimSolver::solve_maxcut, replayed piecewise.
CallResult traced_maxcut(const Workload& w, const Call& call,
                         const cim::core::SolverConfig& config,
                         Tracer& tracer, LayerSums& layers) {
  CIM_REQUIRE(!w.uses_store, "the traced Max-Cut replay runs without store");
  const auto& item = w.maxcut[call.item];
  cim::core::MaxCutOutcome out;
  {
    const auto call_span = tracer.scope("core.solve");
    cim::anneal::MaxCutConfig cfg;
    cfg.schedule = config.schedule;
    cfg.sram = config.sram;
    cfg.noise = config.noise;
    cfg.weight_bits = config.weight_bits;
    cfg.seed = config.seed;
    cfg.record_trace = config.record_trace;
    const auto s = tracer.scope("anneal.maxcut");
    out.anneal = cim::anneal::MaxCutAnnealer(cfg).solve(item.problem);
    out.cut = out.anneal.best_cut;
  }
  const double solve_s = last_span_seconds(tracer);
  {
    const auto s = tracer.scope("qubo.parse", true);
    static_cast<void>(cim::qubo::parse_gset(item.gset));
  }
  layers.add("maxcut.updates", static_cast<double>(out.anneal.sweeps) *
                                   static_cast<double>(item.problem.size()));
  layers.add("maxcut.memo_hits", static_cast<double>(out.anneal.memo_hits));
  layers.add("maxcut.memo_total", static_cast<double>(out.anneal.memo_hits +
                                                      out.anneal.memo_misses));
  layers.add("cim.self_s", solve_s);
  add_storage(layers, out.anneal.storage, out.anneal.update_cycles);
  return check_maxcut(w, call, out);
}

/// CimSolver::solve_ising, replayed piecewise.
CallResult traced_ising(const Workload& w, const Call& call,
                        const cim::core::SolverConfig& config, Tracer& tracer,
                        LayerSums& layers) {
  CIM_REQUIRE(!w.uses_store, "the traced Ising replay runs without store");
  const auto& item = w.ising[call.item];
  cim::core::IsingOutcome out;
  {
    const auto call_span = tracer.scope("core.solve");
    cim::anneal::GenericAnnealConfig cfg;
    cfg.schedule = config.schedule;
    cfg.sram = config.sram;
    cfg.noise = config.noise;
    cfg.strategy = config.group_strategy;
    cfg.group_block = config.group_block;
    cfg.weight_bits = config.weight_bits;
    cfg.seed = config.seed;
    cfg.record_trace = config.record_trace;
    const auto s = tracer.scope("anneal.generic");
    out.anneal = cim::anneal::GenericAnnealer(cfg).solve(item.model);
    out.energy_hw = out.anneal.best_energy_hw;
    out.energy = out.anneal.best_energy;
  }
  const double solve_s = last_span_seconds(tracer);
  if (!item.jh.empty()) {
    const auto s = tracer.scope("qubo.parse", true);
    static_cast<void>(cim::qubo::parse_jh(item.jh));
  }
  {
    const auto s = tracer.scope("ising.map", true);
    static_cast<void>(cim::ising::map_to_hardware(item.model));
  }
  {
    const auto s = tracer.scope("ising.partition", true);
    static_cast<void>(cim::ising::build_partition(
        item.model, config.group_strategy, config.group_block));
  }
  layers.add("generic.updates", static_cast<double>(out.anneal.sweeps) *
                                    static_cast<double>(item.model.size()));
  layers.add("generic.memo_hits", static_cast<double>(out.anneal.memo_hits));
  layers.add("generic.memo_total",
             static_cast<double>(out.anneal.memo_hits +
                                 out.anneal.memo_misses));
  layers.add("generic.groups", static_cast<double>(out.anneal.group_count));
  layers.add("cim.self_s", solve_s);
  add_storage(layers, out.anneal.storage, out.anneal.update_cycles);
  return check_ising(w, call, out);
}

CallResult traced_call(const Workload& w, const Call& call,
                       const std::string& store_dir, Tracer& tracer,
                       LayerSums& layers) {
  const cim::core::SolverConfig config = call_config(w, call, store_dir);
  try {
    switch (call.kind) {
      case CallKind::kTsp:
        return traced_tsp(w, call, config, tracer, layers);
      case CallKind::kMaxCut:
        return traced_maxcut(w, call, config, tracer, layers);
      case CallKind::kIsing:
        return traced_ising(w, call, config, tracer, layers);
    }
  } catch (const std::exception& e) {
    CallResult r;
    r.failure = std::string("exception: ") + e.what();
    return r;
  }
  return {};
}

// ---------------------------------------------------------------- metrics

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Best cut of 8 randomised greedy + local-search restarts.
long long greedy_cut(const cim::ising::MaxCutProblem& problem,
                     std::uint64_t seed) {
  long long best = 0;
  for (std::uint64_t restart = 0; restart < 8; ++restart) {
    best = std::max(best, cim::ising::greedy_maxcut(
                              problem, cim::util::stream_seed(seed, restart)));
  }
  return best;
}

/// Lowest energy of 8 greedy single-spin descents from random states.
double quench_energy(const cim::ising::GenericModel& model,
                     std::uint64_t seed) {
  const cim::ising::IsingModel physics = model.to_ising();
  double best = 0.0;
  for (std::uint64_t start = 0; start < 8; ++start) {
    cim::util::Rng rng(cim::util::stream_seed(seed, start));
    auto spins = cim::ising::random_spins(model.size(), rng);
    for (bool improved = true; improved;) {
      improved = false;
      for (cim::ising::SpinIndex i = 0; i < spins.size(); ++i) {
        if (physics.flip_delta(spins, i) < 0.0) {
          spins[i] = static_cast<cim::ising::Spin>(-spins[i]);
          improved = true;
        }
      }
    }
    const double energy = model.energy(spins);
    best = start == 0 ? energy : std::min(best, energy);
  }
  return best;
}

using Round = std::vector<CallResult>;

/// Answer quality of the first round against classical references; the
/// references are computed here, after the timed loop.
struct Quality {
  double ratio = 0.0;  ///< end-to-end quality_ratio (lower is better)
  double tour_ratio = 0.0;
  double cut_ratio = 0.0;
  double oracle_hit_rate = 0.0;
  double coloring_conflicts = 0.0;
};

Quality measure_quality(const Workload& w, const Round& round,
                        std::uint64_t seed) {
  std::vector<double> costs;  // reference-relative cost per call, >0
  std::vector<double> tours;
  std::vector<double> cuts;
  std::vector<double> oracle;
  std::vector<double> conflicts;
  // One reference per instance, shared by the calls that solve it.
  std::map<std::pair<CallKind, std::size_t>, double> refs;
  const auto reference = [&](const Call& call, auto compute) {
    const auto key = std::make_pair(call.kind, call.item);
    auto it = refs.find(key);
    if (it == refs.end()) it = refs.emplace(key, compute()).first;
    return it->second;
  };
  for (std::size_t i = 0; i < w.calls.size(); ++i) {
    const Call& call = w.calls[i];
    const CallResult& r = round[i];
    if (!r.failure.empty()) continue;
    switch (call.kind) {
      case CallKind::kTsp: {
        double ref = r.reference;
        if (ref <= 0.0) {  // solved without its reference: compute it now
          ref = reference(call, [&] {
            return static_cast<double>(
                cim::heuristics::compute_reference(w.tsp[call.item]).length);
          });
        }
        if (ref > 0.0) tours.push_back(r.objective / ref);
        break;
      }
      case CallKind::kMaxCut: {
        const double greedy = reference(call, [&] {
          return static_cast<double>(
              greedy_cut(w.maxcut[call.item].problem, seed));
        });
        if (r.objective > 0.0 && greedy > 0.0) {
          costs.push_back(greedy / r.objective);
          cuts.push_back(r.objective / greedy);
        }
        break;
      }
      case CallKind::kIsing: {
        const auto& item = w.ising[call.item];
        switch (item.family) {
          case IsingFamily::kSpinGlass: {
            const double ref = reference(
                call, [&] { return quench_energy(item.model, seed); });
            if (ref < 0.0 && r.objective < 0.0) {
              costs.push_back(ref / r.objective);
            }
            break;
          }
          case IsingFamily::kPlantedColoring:
            conflicts.push_back(r.quality);
            break;
          case IsingFamily::kOracleColoring:
          case IsingFamily::kOracleKnapsack:
            oracle.push_back(r.quality);
            break;
        }
        break;
      }
    }
  }
  Quality q;
  q.tour_ratio = geomean(tours);
  q.ratio = tours.empty() ? geomean(costs) : q.tour_ratio;
  q.cut_ratio = mean(cuts);
  q.oracle_hit_rate = mean(oracle);
  q.coloring_conflicts = mean(conflicts);
  return q;
}

/// A closed loop of whole rounds, each with a fresh store directory so
/// every round sees the same misses and hits.
struct Timed {
  std::vector<Round> rounds;
  double wall_s = 0.0;  ///< the whole loop, host-speed gauges included
  double call_s = 0.0;  ///< untraced calls alone
  std::size_t calls = 0;
  /// Peak RSS through the first round: later rounds only add allocator
  /// fragmentation, so their number (which depends on host speed) would
  /// make the peak drift.
  double first_round_rss_mb = 0.0;
};

/// High-water resident set of this process image (VmHWM). getrusage's
/// ru_maxrss is no substitute: it keeps the peak of the process before
/// exec, so under run.py it reads python's 15 MB, not cimbench's.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Untraced (`host` set): rounds until the next one would overrun
/// `budget_s` (at least one), with the host-speed gauge run before the
/// first call and after every call. Traced (`tracer` set): exactly `rounds`
/// rounds.
Timed run_rounds(const Workload& w, double budget_s, std::size_t rounds,
                 const fs::path& dir, HostSpeed* host, Tracer* tracer,
                 LayerSums* layers) {
  Timed t;
  const std::string tag = tracer != nullptr ? "traced" : "timed";
  const Clock::time_point start = Clock::now();
  double before = host != nullptr ? host->slowdown() : 1.0;
  for (std::size_t r = 0;; ++r) {
    const std::string store_dir =
        (dir / (tag + "-r" + std::to_string(r))).string();
    Round round;
    for (const Call& call : w.calls) {
      if (tracer != nullptr) {
        tracer->call = static_cast<int>(t.calls);
        round.push_back(traced_call(w, call, store_dir, *tracer, *layers));
      } else {
        CallResult result = front_door_call(w, call, store_dir);
        const double after = host->slowdown();
        result.host_slowdown = (before + after) / 2.0;
        before = after;
        t.call_s += result.seconds;
        round.push_back(std::move(result));
      }
      ++t.calls;
    }
    t.rounds.push_back(std::move(round));
    t.wall_s = since(start);
    if (t.rounds.size() == 1) t.first_round_rss_mb = peak_rss_mb();
    const double per_round = t.wall_s / static_cast<double>(t.rounds.size());
    if (tracer != nullptr ? t.rounds.size() >= rounds
                          : t.wall_s + per_round > budget_s) {
      break;
    }
  }
  return t;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::size_t trace_event_count() {
  return cim::util::telemetry::Registry::global().merged_events().size();
}

/// Per-layer metrics from the traced replay's spans and counters.
std::vector<Metric> layer_metrics(const Tracer& tracer,
                                  const LayerSums& counts,
                                  const Timed& traced, const Timed& untraced,
                                  double events_per_solve,
                                  const Quality& quality,
                                  std::string& failure) {
  LayerSums spans;  // seconds per span name
  double call_total = 0.0;
  double glue_total = 0.0;
  double self_total = 0.0;
  double probe_total = 0.0;
  const auto& all = tracer.spans();
  std::vector<double> child_s(all.size(), 0.0);
  for (const auto& s : all) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    const double dur = s.end_s - s.start_s;
    spans.add(s.name, dur);
    if (s.probe) {
      probe_total += dur;
    } else if (s.parent < 0) {
      call_total += dur;
      glue_total += dur - child_s[i];
    } else {
      self_total += dur - child_s[i];
    }
  }
  if (std::abs(self_total + glue_total - call_total) > 0.05 * call_total) {
    failure = "child self times plus glue do not cover core.solve";
  }
  const double calls = static_cast<double>(traced.calls);
  const double core_s = LayerSums::ratio(call_total, calls);
  const double untraced_mean =
      LayerSums::ratio(untraced.call_s, static_cast<double>(untraced.calls));
  const double untraced_rate =
      LayerSums::ratio(static_cast<double>(untraced.calls), untraced.call_s);
  const double traced_rate =
      LayerSums::ratio(calls, traced.wall_s - probe_total);
  return {
      {"core.solve_s", core_s, "s"},
      {"core.glue_s", LayerSums::ratio(glue_total, calls), "s"},
      {"anneal.solve_s", spans.mean("anneal.solve"), "s"},
      {"anneal.self_s", counts.mean("anneal.self_s"), "s"},
      {"anneal.swaps", counts.mean("anneal.swaps"), "count"},
      {"anneal.ns_per_swap",
       1e9 * LayerSums::ratio(counts.sum("anneal.self_s"),
                              counts.sum("anneal.swaps")),
       "ns"},
      {"anneal.accept_ratio",
       LayerSums::ratio(counts.sum("anneal.accepted"),
                        counts.sum("anneal.swaps")),
       "ratio"},
      {"anneal.uphill_ratio",
       LayerSums::ratio(counts.sum("anneal.uphill"),
                        counts.sum("anneal.accepted")),
       "ratio"},
      {"anneal.memo_hit_rate",
       LayerSums::ratio(counts.sum("anneal.memo_hits"),
                        counts.sum("anneal.memo_total")),
       "ratio"},
      {"anneal.dcache_hit_rate",
       LayerSums::ratio(counts.sum("anneal.dcache_hits"),
                        counts.sum("anneal.dcache_total")),
       "ratio"},
      {"anneal.maxcut_solve_s", spans.mean("anneal.maxcut"), "s"},
      {"anneal.maxcut_ns_per_update",
       1e9 * LayerSums::ratio(spans.sum("anneal.maxcut"),
                              counts.sum("maxcut.updates")),
       "ns"},
      {"anneal.maxcut_memo_hit_rate",
       LayerSums::ratio(counts.sum("maxcut.memo_hits"),
                        counts.sum("maxcut.memo_total")),
       "ratio"},
      {"anneal.generic_solve_s", spans.mean("anneal.generic"), "s"},
      {"anneal.generic_ns_per_update",
       1e9 * LayerSums::ratio(spans.sum("anneal.generic"),
                              counts.sum("generic.updates")),
       "ns"},
      {"anneal.generic_memo_hit_rate",
       LayerSums::ratio(counts.sum("generic.memo_hits"),
                        counts.sum("generic.memo_total")),
       "ratio"},
      {"anneal.generic_groups", counts.mean("generic.groups"), "count"},
      {"cim.macs", counts.mean("cim.macs"), "count"},
      {"cim.mac_bit_reads", counts.mean("cim.mac_bit_reads"), "count"},
      {"cim.mac_bytes", counts.mean("cim.mac_bit_reads") / 8.0, "B"},
      {"cim.writeback_bits", counts.mean("cim.writeback_bits"), "count"},
      {"cim.pseudo_read_flips", counts.mean("cim.pseudo_read_flips"),
       "count"},
      {"cim.update_cycles", counts.mean("cim.update_cycles"), "count"},
      {"cim.ns_per_mac",
       1e9 * LayerSums::ratio(counts.sum("cim.self_s"), counts.sum("cim.macs")),
       "ns"},
      {"cluster.hierarchy_s", spans.mean("cluster.hierarchy"), "s"},
      {"cluster.depth", counts.mean("cluster.depth"), "count"},
      {"heuristics.reference_s", spans.mean("heuristics.reference"), "s"},
      {"heuristics.reference_share",
       LayerSums::ratio(spans.sum("heuristics.reference"), call_total),
       "ratio"},
      {"tsp.neighbors_s", spans.mean("tsp.neighbors"), "s"},
      {"tsp.fingerprint_s", spans.mean("tsp.fingerprint"), "s"},
      {"store.lookup_s", spans.mean("store.lookup"), "s"},
      {"store.write_s", spans.mean("store.write"), "s"},
      {"store.hit_rate",
       LayerSums::ratio(counts.sum("store.hits"),
                        counts.sum("store.lookups")),
       "ratio"},
      {"store.stores", counts.mean("store.stores"), "count"},
      {"store.kept", counts.mean("store.kept"), "count"},
      {"ppa.report_s", spans.mean("ppa.report"), "s"},
      {"qubo.parse_s", spans.mean("qubo.parse"), "s"},
      {"ising.map_s", spans.mean("ising.map"), "s"},
      {"ising.partition_s", spans.mean("ising.partition"), "s"},
      {"util.trace_events_per_solve", events_per_solve, "count"},
      {"trace.replay_ratio", LayerSums::ratio(core_s, untraced_mean),
       "ratio"},
      {"trace.overhead_solves_per_s", traced_rate - untraced_rate, "1/s"},
      {"quality.tour_ratio", quality.tour_ratio, "ratio"},
      {"quality.cut_ratio", quality.cut_ratio, "ratio"},
      {"quality.oracle_hit_rate", quality.oracle_hit_rate, "ratio"},
      {"quality.coloring_conflicts", quality.coloring_conflicts, "count"},
  };
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 35.0;
  bool trace = false;
  fs::path out_dir = "e2e-out";
};

int run(const Options& opt, Clock::time_point process_start) {
  const fs::path run_dir =
      opt.out_dir / (opt.workload + "-s" + std::to_string(opt.seed) + "-p" +
                     std::to_string(static_cast<long long>(getpid())));
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto tally = [&](const CallResult& r) {
    ++attempted;
    if (!r.failure.empty()) {
      ++failed;
      std::fprintf(stderr, "cimbench: check failed: %s\n",
                   r.failure.c_str());
    }
  };

  // Set-up, five times: generate the inputs (with their GSet / J-h text
  // round trips) and run the untimed warm-up calls, whose first run also
  // starts the shared thread pool. setup_s is the median of their host
  // times, like the calls' (host_speed.hpp). The gauge is built and warmed
  // after the first set-up, so that set-up times only the workload's own
  // start.
  std::optional<Workload> workload;
  std::optional<HostSpeed> host;
  std::vector<double> setups;
  double before = 0.0;
  for (int k = 0; k < 5; ++k) {
    const Clock::time_point start = k == 0 ? process_start : Clock::now();
    workload.emplace(
        cim::bench::e2e::make_workload(opt.workload, opt.seed, false));
    const Workload warm =
        cim::bench::e2e::make_workload(opt.workload, opt.seed, true);
    const std::string store_dir =
        (run_dir / ("warmup" + std::to_string(k))).string();
    for (const Call& call : warm.calls) {
      tally(front_door_call(warm, call, store_dir));
    }
    const double seconds = since(start);
    if (!host) {
      host.emplace();
      static_cast<void>(host->slowdown());  // warm the gauge's code and data
    }
    const double after = host->slowdown();
    setups.push_back(seconds / (k == 0 ? after : (before + after) / 2.0));
    before = after;
  }
  const Workload& w = *workload;

  const std::size_t events_before = trace_event_count();
  const Timed timed = run_rounds(w, opt.trace ? opt.seconds / 2 : opt.seconds,
                                 0, run_dir, &*host, nullptr, nullptr);
  const double events_per_solve =
      static_cast<double>(trace_event_count() - events_before) /
      static_cast<double>(timed.calls);
  // Host times are each call's wall time over the host slowdown around it
  // (host_speed.hpp), pooled over every repeat of every call.
  std::vector<double> times;
  std::vector<double> raw_times;
  std::vector<double> slowdowns;
  for (const Round& round : timed.rounds) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      CallResult r = round[i];
      if (r.failure.empty() && r.digest != timed.rounds.front()[i].digest) {
        r.failure = "result differs from the first round's";
      }
      tally(r);
      times.push_back(r.seconds / r.host_slowdown);
      raw_times.push_back(r.seconds);
      slowdowns.push_back(r.host_slowdown);
    }
  }
  const Quality quality = measure_quality(w, timed.rounds.front(), opt.seed);
  std::vector<double> latency;
  std::vector<double> energy;
  for (const CallResult& r : timed.rounds.front()) {
    latency.push_back(r.sim_latency_us);
    energy.push_back(r.sim_energy_uj);
  }

  std::vector<Metric> metrics;
  std::string trace_failure;
  if (opt.trace) {
    Tracer tracer;
    LayerSums layers;
    const Timed traced = run_rounds(w, 0.0, timed.rounds.size(), run_dir,
                                    nullptr, &tracer, &layers);
    for (std::size_t r = 0; r < traced.rounds.size(); ++r) {
      for (std::size_t i = 0; i < traced.rounds[r].size(); ++i) {
        CallResult c = traced.rounds[r][i];
        if (c.failure.empty() && c.digest != timed.rounds[r][i].digest) {
          c.failure = "traced result differs from the untraced one";
        }
        tally(c);
      }
    }
    metrics = layer_metrics(tracer, layers, traced, timed, events_per_solve,
                            quality, trace_failure);
    const fs::path trace_path = opt.out_dir / (opt.workload + ".trace.json");
    tracer.chrome_trace().save(trace_path.string(), -1);
    std::printf("# trace: %s (%zu spans)\n", trace_path.string().c_str(),
                tracer.spans().size());
  } else {
    std::sort(setups.begin(), setups.end());
    metrics = {
        {"setup_s", setups[setups.size() / 2], "s"},
        {"solve_p50_s", percentile(times, 0.5), "s"},
        {"solve_tail_s", percentile(times, w.tail_quantile), "s"},
        {"solves_per_s", 1.0 / mean(times), "1/s"},
        {"peak_rss_mb", timed.first_round_rss_mb, "MB"},
        {"quality_ratio", quality.ratio, "ratio"},
        {"sim_latency_us", mean(latency), "us"},
        {"sim_energy_uj", mean(energy), "uJ"},
    };
  }
  fs::remove_all(run_dir);

  std::printf(
      "# workload=%s seed=%llu calls=%zu (%zu rounds of %zu); "
      "solve_tail_s=p%.0f with %.1f timed calls beyond it\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      timed.calls, timed.rounds.size(), w.calls.size(),
      100.0 * w.tail_quantile,
      (1.0 - w.tail_quantile) * static_cast<double>(timed.calls));
  std::printf(
      "# host slowdown p10/p50/p90=%.3f/%.3f/%.3f; unadjusted p50=%.4g s "
      "tail=%.4g s rate=%.4g/s\n",
      percentile(slowdowns, 0.1), percentile(slowdowns, 0.5),
      percentile(slowdowns, 0.9), percentile(raw_times, 0.5),
      percentile(raw_times, w.tail_quantile), 1.0 / mean(raw_times));
  if (!trace_failure.empty()) {
    std::fprintf(stderr, "cimbench: %s\n", trace_failure.c_str());
  }
  const bool correct = failed == 0 && trace_failure.empty();
  Json values = Json::object();
  for (const Metric& m : metrics) {
    Json entry = Json::object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    values[m.name] = std::move(entry);
  }
  Json result = Json::object();
  result["correct"] = correct;
  result["attempted"] = static_cast<std::uint64_t>(attempted);
  result["failed"] = static_cast<std::uint64_t>(failed);
  result["metrics"] = std::move(values);
  std::printf("%s\n", result.dump(-1).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  try {
    const cim::util::Args args(argc, argv);
    Options opt;
    opt.workload = args.get_or("workload", "");
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    opt.seconds = args.get_double("seconds", 35.0);
    opt.trace = args.get_int("trace", 0) != 0;
    opt.out_dir = args.get_or("out-dir", "e2e-out");
    const auto& names = cim::bench::e2e::workload_names();
    CIM_REQUIRE(std::find(names.begin(), names.end(), opt.workload) !=
                    names.end(),
                "--workload must be one of tsp-paper, tsp-p8, tsp-large, "
                "ising-mix");
    CIM_REQUIRE(opt.seconds > 0.0, "--seconds must be positive");
    std::printf("# simd=%s vector_kernel=%d memoize=%d pool_threads=%zu\n",
                cim::util::simd::backend(),
                cim::anneal::default_vector_kernel() ? 1 : 0,
                cim::anneal::default_memoize() ? 1 : 0,
                cim::util::ThreadPool::default_width());
    return run(opt, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cimbench: %s\n", e.what());
    return 2;
  }
}
