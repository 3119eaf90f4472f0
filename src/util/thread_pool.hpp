// Persistent work-stealing thread pool — the one parallel runtime every
// threaded site in the repo runs on (colour-parallel swap kernel, replica
// ensembles, k-NN candidate-list construction, the reference pipeline's
// move scans, the pseudo-read write-back across slots and weight chunks,
// and the per-write preferred-bit mask build over the same chunks).
//
// Why a pool: the annealer's epoch loop used to spawn and join
// std::threads per colour per epoch, so the per-swap wins of the sparse
// kernel were eaten by thread churn at the epoch level. The pool creates
// its OS threads exactly once (`threads_created()` exposes the count so
// benches can assert the epoch loop creates zero), keeps one task deque
// per worker, and lets idle workers steal from the back of their peers'
// deques.
//
// Determinism contract: the pool schedules; it never decides *what* is
// computed. `run(count, fn)` invokes fn(i) exactly once for every
// i < count, on an unspecified thread in an unspecified order — callers
// that need reproducible results must make fn(i) a pure function of i
// plus frozen shared state (per-index RNG streams, disjoint output
// slots). parallel_for.hpp layers index-fixed chunking and reduction
// order on top, which is what makes results independent of the worker
// count. See DESIGN.md §11.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace cim::util {

class ThreadPool {
 public:
  /// Creates `workers` persistent OS threads. 0 is allowed: every run()
  /// then executes inline on the caller (useful for serial baselines).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t width() const { return workers_.size(); }

  /// Invokes fn(i) for every i in [0, count) and blocks until all
  /// complete. The calling thread helps execute queued tasks while it
  /// waits, so pool workers may submit nested run() calls without
  /// deadlock. If tasks throw, the exception of the *lowest* task index
  /// is rethrown after every task finished (the same index a serial loop
  /// would have surfaced first — callers see one deterministic error
  /// regardless of scheduling).
  void run(std::size_t count, const std::function<void(std::size_t)>& fn)
      CIM_EXCLUDES(sleep_mu_);

  /// Total OS threads this pool ever created (== width(); the pool never
  /// creates threads after construction). Benches sample it around hot
  /// loops to prove the loop spawns nothing.
  std::uint64_t threads_created() const {
    return threads_created_.load(std::memory_order_relaxed);
  }
  /// Tasks executed so far (by workers and by helping callers).
  std::uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }
  /// Tasks a thread popped from a deque it does not own (workers stealing
  /// from peers, plus helping callers, which own no deque).
  std::uint64_t tasks_stolen() const {
    return tasks_stolen_.load(std::memory_order_relaxed);
  }

  /// The process-wide pool, created on first use with default_width()
  /// workers and reused by every parallel site; serial code paths never
  /// touch it, so fully serial runs create no threads at all.
  static ThreadPool& shared();

  /// The shared pool if shared() has already constructed it, else
  /// nullptr. Observers (the telemetry snapshot) use this so exporting
  /// metrics never instantiates the pool as a side effect.
  static const ThreadPool* shared_if_created();

  /// Sentinel returned by current_worker_index() on threads no pool
  /// created (main, test drivers, helping submitters).
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  /// The calling thread's fixed index within the pool that created it
  /// ([0, width)), or kNotAWorker. A stable property of the thread, not
  /// of scheduling — telemetry sinks merge in this order to keep trace
  /// output deterministic (DESIGN.md §12).
  static std::size_t current_worker_index();

  /// Width of the shared pool: the CIMANNEAL_THREADS environment
  /// variable when set to a positive integer, else the hardware
  /// concurrency (min 1).
  static std::size_t default_width();

  /// Parses a CIMANNEAL_THREADS-style override; nullopt-like 0 for
  /// unset/invalid/non-positive values. Exposed for tests.
  static std::size_t parse_width(const char* text);

 private:
  struct Batch;
  struct Task {
    Batch* batch = nullptr;
    std::size_t index = 0;
  };
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks CIM_GUARDED_BY(mu);
  };

  void worker_loop(std::size_t id);
  /// Pops one task: LIFO from `home` (own deque), else FIFO-steals from
  /// the peers. `home == npos` for helping callers (no own deque).
  /// Takes queue mutexes and sleep_mu_ internally.
  bool pop_task(std::size_t home, Task& task) CIM_EXCLUDES(sleep_mu_);
  void execute(const Task& task);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;

  std::mutex sleep_mu_;
  std::condition_variable work_cv_;
  /// Queued-but-unclaimed tasks (what sleeping workers wait on).
  std::size_t ready_ CIM_GUARDED_BY(sleep_mu_) = 0;
  bool stop_ CIM_GUARDED_BY(sleep_mu_) = false;

  std::atomic<std::uint64_t> threads_created_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> tasks_stolen_{0};
  std::atomic<std::size_t> next_queue_{0};  // round-robin submission cursor
};

}  // namespace cim::util
