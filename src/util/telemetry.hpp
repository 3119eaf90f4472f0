// Process-wide telemetry: metrics registry + trace events.
//
// Two data planes, one compile-time gate (CIMANNEAL_TELEMETRY):
//
//  * Metrics — monotonic `Counter`s, last-write `Gauge`s and fixed-edge
//    `Histogram`s, looked up by name in the global `Registry`. Updates
//    are lock-free (relaxed atomics); only the first lookup of a
//    name takes the registry mutex, so callers hoist the reference out
//    of hot loops.
//  * Trace events — begin/end/instant/counter events appended to
//    per-thread sinks without any cross-thread synchronisation.
//    `merged_events()` interleaves the sinks in *deterministic* order:
//    sinks owned by shared-pool workers sort by their fixed worker
//    index (then registration order), non-pool threads (the
//    coordinator) come first. Event ordering therefore never depends on
//    scheduling — the same contract parallel_for_chunks gives its chunks
//    (DESIGN.md §11, §12).
//
// When the build sets CIMANNEAL_TELEMETRY=OFF every type below becomes
// an empty inline stub and the TELEM_* macros expand to `(void)0`:
// no atomics, no strings, no branches survive in the hot paths. Hot
// per-iteration emission sites additionally guard with
// `if constexpr (telemetry::kEnabled)` so argument packs are never even
// constructed.
//
// Export: `snapshot()` → versioned JSON metrics dump, `chrome_trace()`
// → Chrome `chrome://tracing` / Perfetto "traceEvents" JSON. Snapshot
// and merge require quiescence: no concurrent writers while exporting
// or resetting (the same join-before-merge rule every parallel site
// already obeys).
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/thread_annotations.hpp"

#ifndef CIMANNEAL_TELEMETRY_ENABLED
#define CIMANNEAL_TELEMETRY_ENABLED 1
#endif

namespace cim::util::telemetry {

/// Compile-time gate; `if constexpr (telemetry::kEnabled)` removes hot
/// emission sites entirely when the build disables telemetry.
inline constexpr bool kEnabled = CIMANNEAL_TELEMETRY_ENABLED != 0;

/// Version stamped into every snapshot / trace export. Bump when the
/// JSON layout changes shape (DESIGN.md §12 documents the schema).
inline constexpr long long kSchemaVersion = 2;

/// One key/value attachment on a trace event. Values are numeric only:
/// every quantity the annealer traces (energies, counts, epoch ids) is
/// a number, and it keeps events POD-cheap to record.
struct TraceArg {
  std::string key;
  double value = 0.0;
};

/// One trace event. `phase` uses the Chrome trace phase letters:
/// 'B' begin, 'E' end, 'C' counter sample, 'i' instant.
/// `tid` is assigned at merge time (the sink's deterministic position),
/// not at record time — see Registry::merged_events().
struct TraceEvent {
  std::string name;
  char phase = 'i';
  std::uint64_t ts_ns = 0;
  std::uint64_t tid = 0;
  std::vector<TraceArg> args;
};

#if CIMANNEAL_TELEMETRY_ENABLED

/// Monotonic counter: one relaxed atomic, so add() is wait-free after
/// the first registry lookup. Writers add once per level or per solve,
/// too rarely to contend on its cache line; the total is exact in any
/// order of adds.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) {
    count_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Requires quiescence (no concurrent add()).
  void reset() { count_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> count_{0};
};

/// Last-write-wins double value (stored as bits in one atomic word).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double value) {
    bits_.store(std::bit_cast<std::uint64_t>(value),
                std::memory_order_relaxed);
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void reset() { set(0.0); }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// Histogram over fixed ascending bucket edges. A value lands in the
/// first bucket whose edge is >= value; values above the last edge land
/// in the trailing overflow bucket, so bucket_count() has
/// edges.size() + 1 valid indices. Each bucket is one relaxed atomic,
/// like Counter.
class Histogram {
 public:
  explicit Histogram(std::vector<double> edges);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double value);
  const std::vector<double>& edges() const { return edges_; }
  std::size_t bucket_count() const { return edges_.size() + 1; }
  std::uint64_t count_in_bucket(std::size_t bucket) const;
  std::uint64_t total_count() const;
  void reset();

 private:
  std::vector<double> edges_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
};

/// The process-wide metric + trace-event store. All names are flat
/// dotted strings ("anneal.swaps_accepted"); the snapshot sorts them,
/// so output order never depends on registration order.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The default instance every TELEM_* macro targets.
  static Registry& global();

  /// Finds or creates the named metric. References stay valid for the
  /// registry's lifetime (reset() clears values, never storage), so
  /// hot loops look up once and update lock-free after.
  Counter& counter(const std::string& name) CIM_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) CIM_EXCLUDES(mu_);
  /// Edges must be ascending and non-empty; repeated lookups of one
  /// name must pass identical edges.
  Histogram& histogram(const std::string& name, std::vector<double> edges)
      CIM_EXCLUDES(mu_);

  /// Trace-event emission. Each call appends to the calling thread's
  /// private sink — no synchronisation with other emitters.
  void begin(const std::string& name, std::vector<TraceArg> args = {});
  void end(const std::string& name);
  void instant(const std::string& name, std::vector<TraceArg> args = {});
  /// A Chrome 'C' sample: a named set of series values at one instant.
  void counter_event(const std::string& name, std::vector<TraceArg> args);

  /// All recorded events, sinks concatenated in deterministic order:
  /// non-pool threads first (registration order), then shared-pool
  /// workers by ascending worker index. Within a sink, program order.
  /// `tid` on the returned events is the sink's position in that order.
  /// Requires quiescence.
  std::vector<TraceEvent> merged_events() const CIM_EXCLUDES(mu_);

  /// Versioned metrics dump: schema_version, counters/gauges/histograms
  /// (name-sorted), plus the shared thread pool's counters when the
  /// pool exists. Requires quiescence.
  Json snapshot() const CIM_EXCLUDES(mu_);

  /// Chrome trace ("traceEvents") JSON built from merged_events().
  Json chrome_trace() const;

  /// snapshot()/chrome_trace() written to files (util::Json::save).
  void save_snapshot(const std::string& path) const;
  void save_trace(const std::string& path) const;

  /// Zeroes every metric and drops every recorded event. Metric
  /// references and per-thread sinks stay valid. Requires quiescence.
  void reset() CIM_EXCLUDES(mu_);

 private:
  friend class Scope;
  struct Sink;

  Sink& local_sink() CIM_EXCLUDES(mu_);
  void record(char phase, const std::string& name,
              std::vector<TraceArg> args) CIM_EXCLUDES(mu_);
  std::uint64_t now_ns() const;

  /// Cache of the calling thread's sink in this registry, so repeated
  /// emission is lock-free after the thread's first event.
  static thread_local std::uint64_t t_cached_registry_;
  static thread_local Sink* t_cached_sink_;

  const std::uint64_t registry_id_;
  const std::chrono::steady_clock::time_point epoch_;

  // mu_ serialises registry *structure* (name lookup, sink registration,
  // export); metric updates and event appends are lock-free after the
  // first lookup. The maps own the metrics; the pointees stay valid and
  // are updated outside the lock (atomics / per-thread sinks),
  // which is why the members — not their pointees — are guarded.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      CIM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ CIM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      CIM_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Sink>> sinks_ CIM_GUARDED_BY(mu_);
};

/// RAII begin/end pair on one registry.
class Scope {
 public:
  Scope(Registry& registry, std::string name, std::vector<TraceArg> args = {})
      : registry_(registry), name_(std::move(name)) {
    registry_.begin(name_, std::move(args));
  }
  ~Scope() { registry_.end(name_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Registry& registry_;
  std::string name_;
};

#else  // !CIMANNEAL_TELEMETRY_ENABLED — inert stubs, same surface.

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;
  void add(std::uint64_t = 1) {}
  std::uint64_t value() const { return 0; }
  void reset() {}
};

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;
  void set(double) {}
  double value() const { return 0.0; }
  void reset() {}
};

class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;
  void observe(double) {}
  const std::vector<double>& edges() const { return edges_; }
  std::size_t bucket_count() const { return 0; }
  std::uint64_t count_in_bucket(std::size_t) const { return 0; }
  std::uint64_t total_count() const { return 0; }
  void reset() {}

 private:
  std::vector<double> edges_;
};

class Registry {
 public:
  static Registry& global() {
    static Registry registry;
    return registry;
  }

  Counter& counter(const std::string&) { return counter_; }
  Gauge& gauge(const std::string&) { return gauge_; }
  Histogram& histogram(const std::string&, std::vector<double>) {
    return histogram_;
  }

  void begin(const std::string&, std::vector<TraceArg> = {}) {}
  void end(const std::string&) {}
  void instant(const std::string&, std::vector<TraceArg> = {}) {}
  void counter_event(const std::string&, std::vector<TraceArg>) {}

  std::vector<TraceEvent> merged_events() const { return {}; }

  Json snapshot() const {
    Json out = Json::object();
    out["schema_version"] = kSchemaVersion;
    out["telemetry_enabled"] = false;
    return out;
  }
  Json chrome_trace() const {
    Json out = Json::object();
    out["schema_version"] = kSchemaVersion;
    out["telemetry_enabled"] = false;
    out["traceEvents"] = Json::array();
    return out;
  }
  void save_snapshot(const std::string& path) const { snapshot().save(path); }
  void save_trace(const std::string& path) const { chrome_trace().save(path); }
  void reset() {}

 private:
  Counter counter_;
  Gauge gauge_;
  Histogram histogram_;
};

class Scope {
 public:
  Scope(Registry&, std::string, std::vector<TraceArg> = {}) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

#endif  // CIMANNEAL_TELEMETRY_ENABLED

}  // namespace cim::util::telemetry

// Convenience macros targeting Registry::global(). Policy
// (cimlint `telemetry-in-header`): these must not appear in public
// headers — instrumentation belongs in .cpp files so header consumers
// never pay for (or depend on) telemetry.
// NOLINTNEXTLINE(telemetry-in-header): the definitions themselves.
#define TELEM_CONCAT_INNER(a, b) a##b
#define TELEM_CONCAT(a, b) TELEM_CONCAT_INNER(a, b)

#if CIMANNEAL_TELEMETRY_ENABLED
/// Begin/end trace scope covering the rest of the enclosing block.
#define TELEM_SCOPE(name)                               \
  const ::cim::util::telemetry::Scope TELEM_CONCAT(     \
      telem_scope_, __LINE__)(                          \
      ::cim::util::telemetry::Registry::global(), (name))
/// Same, with `{"key", value}` argument pairs attached to the begin.
#define TELEM_SCOPE_ARGS(name, ...)                     \
  const ::cim::util::telemetry::Scope TELEM_CONCAT(     \
      telem_scope_, __LINE__)(                          \
      ::cim::util::telemetry::Registry::global(), (name), {__VA_ARGS__})
#define TELEM_INSTANT(name, ...)                        \
  ::cim::util::telemetry::Registry::global().instant((name), {__VA_ARGS__})
#define TELEM_COUNTER_EVENT(name, ...)                  \
  ::cim::util::telemetry::Registry::global().counter_event((name),  \
                                                           {__VA_ARGS__})
#define TELEM_COUNTER_ADD(name, delta)                  \
  ::cim::util::telemetry::Registry::global().counter((name)).add((delta))
#define TELEM_GAUGE_SET(name, value)                    \
  ::cim::util::telemetry::Registry::global().gauge((name)).set((value))
#else
#define TELEM_SCOPE(name) static_cast<void>(0)
#define TELEM_SCOPE_ARGS(name, ...) static_cast<void>(0)
#define TELEM_INSTANT(name, ...) static_cast<void>(0)
#define TELEM_COUNTER_EVENT(name, ...) static_cast<void>(0)
#define TELEM_COUNTER_ADD(name, delta) static_cast<void>(0)
#define TELEM_GAUGE_SET(name, value) static_cast<void>(0)
#endif
