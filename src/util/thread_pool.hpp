// Persistent thread pool — the one parallel runtime every threaded site in
// the repo runs on (replica ensembles, k-NN candidate-list construction,
// the cluster hierarchy's per-round k-NN searches, hw::StorageBatch — the
// one site for every weight write and pseudo-read write-back of a solve,
// in fixed-size weight tasks across all its storages — and the TSP
// quality reference that run_beside() computes while the caller anneals).
//
// Why a pool: the annealer's epoch loop used to spawn and join
// std::threads per colour per epoch, so the per-swap wins of the sparse
// kernel were eaten by thread churn at the epoch level. The pool creates
// its OS threads exactly once (`threads_created()` exposes the count so
// benches can assert the epoch loop creates zero). Every batch is a flat
// fork-join from one submitter, so the pool keeps one mutex-guarded list
// of open batches, oldest first: an idle worker claims the next index of
// the oldest, and a thread waiting on its own batch claims only that
// batch's indices.
//
// Determinism contract: the pool schedules; it never decides *what* is
// computed. `run(count, fn)` invokes fn(i) exactly once for every
// i < count, on an unspecified thread in an unspecified order — callers
// that need reproducible results must make fn(i) a pure function of i
// plus frozen shared state (per-index RNG streams, disjoint output
// slots). parallel_for.hpp layers index-fixed chunking on top, which is
// what makes results independent of the worker count. See DESIGN.md §11.
//
// Measuring the pool: a timing probe must not busy-wait on the clock. On
// hosts where std::chrono::steady_clock::now() is a system call (no vDSO
// clock source), concurrent calls serialise: 200k calls per thread took
// 9, 17 and 34 ms of wall time on 1, 2 and 4 threads of a 4-vCPU VM. Tasks
// that spin on now() for their duration then run one at a time, and the
// pool looks serial (an 8-task batch of 100 µs spins took 815 µs) when a
// batch of pure-compute tasks runs in parallel (223–234 µs). Give probe
// tasks a fixed amount of arithmetic, and read the clock only around the
// batch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/function_ref.hpp"
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
  /// complete. The calling thread, worker or not, runs unclaimed indices
  /// of this batch while it waits, and never a task of another batch: so
  /// it never runs, say, a run_beside background meant to overlap it, and
  /// a worker's nested run() cannot deadlock, as the indices it leaves are
  /// already running on threads that never wait on it. If tasks throw,
  /// the exception of the *lowest* task index is rethrown after every
  /// task finished (the same index a serial loop would have surfaced
  /// first — callers see one deterministic error regardless of
  /// scheduling). `fn` is only referenced, for the length of the call.
  void run(std::size_t count, FunctionRef<void(std::size_t)> fn)
      CIM_EXCLUDES(mu_);

  /// Opens `background` as a one-task batch, runs `foreground` inline on
  /// the calling thread, then waits, by the run() rule, until the
  /// background has finished (the caller runs it itself only if no worker
  /// has claimed it by then). Both closures always run exactly once. If
  /// both throw, the foreground's exception is rethrown — and only after
  /// the background finished. With no workers the foreground runs first,
  /// then the background, both inline.
  void run_beside(FunctionRef<void()> background,
                  FunctionRef<void()> foreground) CIM_EXCLUDES(mu_);

  /// Total OS threads this pool ever created (== width(); the pool never
  /// creates threads after construction). Benches sample it around hot
  /// loops to prove the loop spawns nothing.
  std::uint64_t threads_created() const {
    return threads_created_.load(std::memory_order_relaxed);
  }
  /// Tasks executed so far (by workers and by waiting submitters).
  std::uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  /// The process-wide pool, created on first use with default_width()
  /// workers and reused by every parallel site. Serial code paths never
  /// touch it, but every TSP solve that computes its reference does
  /// (run_beside), so only runs with neither create no threads at all.
  static ThreadPool& shared();

  /// The shared pool if shared() has already constructed it, else
  /// nullptr. Observers (the telemetry snapshot) use this so exporting
  /// metrics never instantiates the pool as a side effect.
  static const ThreadPool* shared_if_created();

  /// Sentinel returned by current_worker_index() on threads no pool
  /// created (main, test drivers, submitters).
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  /// The calling thread's fixed index within the pool that created it
  /// ([0, width)), or kNotAWorker. A stable property of the thread, not
  /// of scheduling — telemetry sinks merge in this order to keep trace
  /// output deterministic (DESIGN.md §12).
  static std::size_t current_worker_index();

  /// Largest CIMANNEAL_THREADS value parse_width() accepts; anything
  /// above is treated as malformed rather than as a request for that many
  /// OS threads.
  static constexpr std::size_t kMaxWidth = 1024;

  /// Width of the shared pool: the CIMANNEAL_THREADS environment
  /// variable when set to an integer in [1, kMaxWidth], else the hardware
  /// concurrency (min 1).
  static std::size_t default_width();

  /// Parses a CIMANNEAL_THREADS-style override; nullopt-like 0 for
  /// unset/invalid/non-positive/out-of-range values (including strtol
  /// overflow and anything above kMaxWidth). Exposed for tests.
  static std::size_t parse_width(const char* text);

 private:
  struct Batch;

  void worker_loop(std::size_t id) CIM_EXCLUDES(mu_);
  /// Appends `batch` to the open list and wakes workers for its tasks.
  void open(Batch& batch) CIM_EXCLUDES(mu_);
  /// Claims the next index of `batch`, unlinking the batch once it has
  /// none left.
  std::size_t claim(Batch& batch) CIM_REQUIRES(mu_);
  /// Runs task `index` of `batch` and records its completion.
  void execute(Batch& batch, std::size_t index) CIM_EXCLUDES(mu_);
  /// Runs `batch`'s unclaimed indices, then waits until all finished;
  /// returns the lowest-index exception, if any.
  std::exception_ptr finish(Batch& batch) CIM_EXCLUDES(mu_);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // a batch opened, or stop_
  std::condition_variable done_cv_;  // some batch's last task finished
  /// Open batches (unclaimed indices left), oldest first, linked through
  /// Batch::next_open; the Batch fields that change are guarded too.
  Batch* open_head_ CIM_GUARDED_BY(mu_) = nullptr;
  bool stop_ CIM_GUARDED_BY(mu_) = false;

  std::atomic<std::uint64_t> threads_created_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
};

}  // namespace cim::util
