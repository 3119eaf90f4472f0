#include "util/telemetry.hpp"

#if CIMANNEAL_TELEMETRY_ENABLED

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cim::util::telemetry {

namespace {

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// -------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  CIM_REQUIRE(!edges_.empty(), "histogram needs at least one bucket edge");
  CIM_REQUIRE(std::is_sorted(edges_.begin(), edges_.end()),
              "histogram edges must be ascending");
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bucket_count());
}

void Histogram::observe(double value) {
  // First bucket whose edge is >= value; past-the-end = overflow bucket.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(edges_.begin(), edges_.end(), value) -
      edges_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Histogram::count_in_bucket(std::size_t bucket) const {
  CIM_REQUIRE(bucket < bucket_count(), "histogram bucket out of range");
  return counts_[bucket].load(std::memory_order_relaxed);
}

std::uint64_t Histogram::total_count() const {
  std::uint64_t sum = 0;
  for (std::size_t b = 0; b < bucket_count(); ++b) {
    sum += count_in_bucket(b);
  }
  return sum;
}

void Histogram::reset() {
  for (std::size_t b = 0; b < bucket_count(); ++b) {
    counts_[b].store(0, std::memory_order_relaxed);
  }
}

// --------------------------------------------------------------- Registry

/// One thread's private event buffer. Appended to without locks by its
/// owning thread; read only under the quiescence contract.
struct Registry::Sink {
  /// Merge rank: 0 for non-pool threads (the coordinator runs the
  /// annealer and emits the canonical event stream), worker index + 1
  /// for shared-pool workers — a fixed property of the thread, never of
  /// scheduling.
  std::uint64_t order_key = 0;
  /// Registration sequence, the tie-break inside one rank.
  std::uint64_t seq = 0;
  std::vector<TraceEvent> events;
};

thread_local std::uint64_t Registry::t_cached_registry_ = 0;
thread_local Registry::Sink* Registry::t_cached_sink_ = nullptr;

Registry::Registry()
    : registry_id_(next_registry_id()),
      epoch_(std::chrono::steady_clock::now()) {}

Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> edges) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(edges));
  } else {
    CIM_REQUIRE(slot->edges() == edges,
                "histogram re-registered with different edges: " + name);
  }
  return *slot;
}

Registry::Sink& Registry::local_sink() {
  if (t_cached_registry_ == registry_id_ && t_cached_sink_ != nullptr) {
    return *t_cached_sink_;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  auto sink = std::make_unique<Sink>();
  const std::size_t worker = ThreadPool::current_worker_index();
  sink->order_key = worker == ThreadPool::kNotAWorker
                        ? 0
                        : static_cast<std::uint64_t>(worker) + 1;
  sink->seq = sinks_.size();
  Sink& ref = *sink;
  sinks_.push_back(std::move(sink));
  t_cached_registry_ = registry_id_;
  t_cached_sink_ = &ref;
  return ref;
}

std::uint64_t Registry::now_ns() const {
  // Trace timestamps are observability-only: they annotate events but
  // never feed annealing state, and the golden-trajectory fingerprints
  // (test_telemetry_golden.cpp) hash event names/args, not timestamps.
  // Merge order is fixed by worker index, not by time (DESIGN.md §12).
  // NOLINT(det-taint): wall-clock feeds trace timestamps only.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Registry::record(char phase, const std::string& name,
                      std::vector<TraceArg> args) {
  Sink& sink = local_sink();
  TraceEvent event;
  event.name = name;
  event.phase = phase;
  event.ts_ns = now_ns();
  event.args = std::move(args);
  sink.events.push_back(std::move(event));
}

void Registry::begin(const std::string& name, std::vector<TraceArg> args) {
  record('B', name, std::move(args));
}

void Registry::end(const std::string& name) { record('E', name, {}); }

void Registry::instant(const std::string& name, std::vector<TraceArg> args) {
  record('i', name, std::move(args));
}

void Registry::counter_event(const std::string& name,
                             std::vector<TraceArg> args) {
  record('C', name, std::move(args));
}

std::vector<TraceEvent> Registry::merged_events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Sink*> ordered;
  ordered.reserve(sinks_.size());
  for (const std::unique_ptr<Sink>& sink : sinks_) {
    ordered.push_back(sink.get());
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Sink* a, const Sink* b) {
              if (a->order_key != b->order_key) {
                return a->order_key < b->order_key;
              }
              return a->seq < b->seq;
            });
  std::vector<TraceEvent> merged;
  for (std::size_t tid = 0; tid < ordered.size(); ++tid) {
    for (const TraceEvent& event : ordered[tid]->events) {
      merged.push_back(event);
      merged.back().tid = tid;
    }
  }
  return merged;
}

Json Registry::snapshot() const {
  Json out = Json::object();
  out["schema_version"] = kSchemaVersion;
  out["telemetry_enabled"] = true;

  const std::lock_guard<std::mutex> lock(mu_);
  Json counters = Json::object();
  for (const auto& [name, counter] : counters_) {
    counters[name] = counter->value();
  }
  out["counters"] = std::move(counters);

  Json gauges = Json::object();
  for (const auto& [name, gauge] : gauges_) {
    gauges[name] = gauge->value();
  }
  out["gauges"] = std::move(gauges);

  Json histograms = Json::object();
  for (const auto& [name, histogram] : histograms_) {
    Json h = Json::object();
    Json edges = Json::array();
    for (const double edge : histogram->edges()) edges.push_back(edge);
    h["edges"] = std::move(edges);
    Json counts = Json::array();
    for (std::size_t b = 0; b < histogram->bucket_count(); ++b) {
      counts.push_back(histogram->count_in_bucket(b));
    }
    h["counts"] = std::move(counts);
    h["total"] = histogram->total_count();
    histograms[name] = std::move(h);
  }
  out["histograms"] = std::move(histograms);

  // The pool's counters ride along when the pool was ever created;
  // shared_if_created() never instantiates it, so serial runs report
  // no pool section at all.
  if (const ThreadPool* pool = ThreadPool::shared_if_created()) {
    Json tp = Json::object();
    tp["width"] = static_cast<std::uint64_t>(pool->width());
    tp["threads_created"] = pool->threads_created();
    tp["tasks_executed"] = pool->tasks_executed();
    out["thread_pool"] = std::move(tp);
  }
  return out;
}

Json Registry::chrome_trace() const {
  Json out = Json::object();
  out["schema_version"] = kSchemaVersion;
  out["displayTimeUnit"] = "ns";
  Json events = Json::array();
  for (const TraceEvent& event : merged_events()) {
    Json e = Json::object();
    e["name"] = event.name;
    e["ph"] = std::string(1, event.phase);
    // Chrome's ts field is microseconds; keep sub-µs precision as a
    // fractional part.
    e["ts"] = static_cast<double>(event.ts_ns) / 1000.0;
    e["pid"] = 1;
    e["tid"] = event.tid;
    if (!event.args.empty()) {
      Json args = Json::object();
      for (const TraceArg& arg : event.args) args[arg.key] = arg.value;
      e["args"] = std::move(args);
    }
    events.push_back(std::move(e));
  }
  out["traceEvents"] = std::move(events);
  return out;
}

void Registry::save_snapshot(const std::string& path) const {
  snapshot().save(path);
}

void Registry::save_trace(const std::string& path) const {
  chrome_trace().save(path);
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : counters_) entry.second->reset();
  for (auto& entry : gauges_) entry.second->reset();
  for (auto& entry : histograms_) entry.second->reset();
  for (std::unique_ptr<Sink>& sink : sinks_) sink->events.clear();
}

}  // namespace cim::util::telemetry

#endif  // CIMANNEAL_TELEMETRY_ENABLED
