#include "util/thread_pool.hpp"

#include <cerrno>
#include <cstdlib>
#include <iterator>
#include <utility>

namespace cim::util {

namespace {

/// Set once in worker_loop; kNotAWorker everywhere else.
thread_local std::size_t t_worker_index = ThreadPool::kNotAWorker;
/// The pool whose worker_loop owns this thread; nullptr elsewhere.
thread_local const ThreadPool* t_worker_pool = nullptr;

/// Published by shared() after the function-local static constructs, so
/// shared_if_created() can observe the pool without instantiating it.
std::atomic<const ThreadPool*> g_shared_pool{nullptr};

/// Runs `fn`, returning its exception instead of throwing it.
std::exception_ptr run_captured(const std::function<void()>& fn) {
  try {
    fn();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

}  // namespace

/// One run() call: the shared function, the not-yet-finished task count
/// and the per-index captured exceptions. Lives on the submitting
/// thread's stack for the duration of the call.
struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> remaining{0};

  std::mutex error_mu;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors
      CIM_GUARDED_BY(error_mu);

  std::mutex done_mu;
  std::condition_variable done_cv;
  /// Set by the final task; the submitter's exit handshake waits on it.
  bool completed CIM_GUARDED_BY(done_mu) = false;
};

ThreadPool::ThreadPool(std::size_t workers) {
  queues_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
    threads_created_.fetch_add(1, std::memory_order_relaxed);
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

// Every pool task body executes under this loop (or under a helping
// run() caller below): both are determinism-taint roots so no submitted
// task can reach a non-deterministic source unnoticed.
CIM_DETERMINISM_ROOT
void ThreadPool::worker_loop(std::size_t id) {
  t_worker_index = id;
  t_worker_pool = this;
  for (;;) {
    Task task;
    if (pop_task(id, task)) {
      execute(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    work_cv_.wait(lock, [this] { return stop_ || ready_ > 0; });
    if (stop_) return;
  }
}

bool ThreadPool::pop_task(std::size_t home, Task& task) {
  const std::size_t n = queues_.size();
  if (n == 0) return false;
  // Own deque first, newest task first (LIFO keeps nested submissions
  // cache-warm on their submitter).
  if (home != npos) {
    WorkerQueue& own = *queues_[home];
    const std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      task = own.tasks.back();
      own.tasks.pop_back();
      const std::lock_guard<std::mutex> ready_lock(sleep_mu_);
      --ready_;
      return true;
    }
  }
  // Steal oldest-first from the peers, scanning from the next queue so
  // load spreads instead of everyone hammering queue 0.
  const std::size_t start = home != npos ? home + 1 : 0;
  for (std::size_t off = 0; off < n; ++off) {
    const std::size_t victim = (start + off) % n;
    if (victim == home) continue;
    WorkerQueue& q = *queues_[victim];
    const std::lock_guard<std::mutex> lock(q.mu);
    if (q.tasks.empty()) continue;
    task = q.tasks.front();
    q.tasks.pop_front();
    {
      const std::lock_guard<std::mutex> ready_lock(sleep_mu_);
      --ready_;
    }
    tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool ThreadPool::pop_batch_task(const Batch& batch, Task& task) {
  // Newest first: a caller's own tasks sit at the back of the deques it
  // just pushed them onto.
  for (const std::unique_ptr<WorkerQueue>& queue : queues_) {
    WorkerQueue& q = *queue;
    const std::lock_guard<std::mutex> lock(q.mu);
    for (auto it = q.tasks.rbegin(); it != q.tasks.rend(); ++it) {
      if (it->batch != &batch) continue;
      task = *it;
      q.tasks.erase(std::next(it).base());
      {
        const std::lock_guard<std::mutex> ready_lock(sleep_mu_);
        --ready_;
      }
      tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::execute(const Task& task) {
  Batch& batch = *task.batch;
  try {
    (*batch.fn)(task.index);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(batch.error_mu);
    batch.errors.emplace_back(task.index, std::current_exception());
  }
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task: mark completion under done_mu and wake the submitter.
    // The flag (not the atomic) is what the submitter's exit handshake
    // waits on — it guarantees this thread is done touching the Batch
    // before the submitter lets it leave scope.
    const std::lock_guard<std::mutex> lock(batch.done_mu);
    batch.completed = true;
    batch.done_cv.notify_all();
  }
}

void ThreadPool::enqueue(Batch& batch, std::size_t count) {
  batch.remaining.store(count, std::memory_order_relaxed);
  // Distribute round-robin over the worker deques. The cursor persists
  // across batches so repeated small runs don't all land on worker 0.
  const std::size_t base = next_queue_.fetch_add(count,
                                                 std::memory_order_relaxed);
  for (std::size_t i = 0; i < count; ++i) {
    WorkerQueue& q = *queues_[(base + i) % queues_.size()];
    const std::lock_guard<std::mutex> lock(q.mu);
    q.tasks.push_back(Task{&batch, i});
  }
  {
    const std::lock_guard<std::mutex> lock(sleep_mu_);
    ready_ += count;
  }
  work_cv_.notify_all();
}

void ThreadPool::help_until_done(Batch& batch) {
  // Help until the batch drains. A worker of this pool may execute tasks
  // of *other* batches it steals — that is what makes nested run() calls
  // from pool workers deadlock-free: every submitting worker keeps
  // draining queues while its own tasks are in flight elsewhere. Any
  // other caller executes only its own batch's tasks, so it never runs,
  // say, a run_beside background queued by an outer frame in place of
  // the work it overlaps. That cannot deadlock: the tasks it leaves go
  // to workers, and no worker ever waits on this caller.
  const bool worker = t_worker_pool == this;
  Task task;
  while (batch.remaining.load(std::memory_order_acquire) > 0 &&
         (worker ? pop_task(npos, task) : pop_batch_task(batch, task))) {
    execute(task);
  }
  // Exit handshake: the Batch lives on the submitter's stack, so before
  // it leaves scope the final decrementer must be fully out of
  // notify_all — waiting for `completed` under done_mu synchronises with
  // it.
  std::unique_lock<std::mutex> lock(batch.done_mu);
  batch.done_cv.wait(lock, [&batch] { return batch.completed; });
}

void ThreadPool::rethrow_lowest_error(Batch& batch) {
  // Every task has finished, so errors is complete; rethrow the lowest
  // index deterministically.
  if (batch.errors.empty()) return;
  std::size_t best = 0;
  for (std::size_t e = 1; e < batch.errors.size(); ++e) {
    if (batch.errors[e].first < batch.errors[best].first) best = e;
  }
  std::rethrow_exception(batch.errors[best].second);
}

CIM_DETERMINISM_ROOT
void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    // Inline serial execution: index order, so the first throwing index
    // surfaces — the same index the parallel path rethrows.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  Batch batch;
  batch.fn = &fn;
  enqueue(batch, count);
  help_until_done(batch);
  rethrow_lowest_error(batch);
}

CIM_DETERMINISM_ROOT
void ThreadPool::run_beside(const std::function<void()>& background,
                            const std::function<void()>& foreground) {
  if (workers_.empty()) {
    // Inline, foreground first; both always run, as on the pooled path.
    const std::exception_ptr foreground_error = run_captured(foreground);
    const std::exception_ptr background_error = run_captured(background);
    if (foreground_error) std::rethrow_exception(foreground_error);
    if (background_error) std::rethrow_exception(background_error);
    return;
  }

  const std::function<void(std::size_t)> task =
      [&background](std::size_t) { background(); };
  Batch batch;
  batch.fn = &task;
  enqueue(batch, 1);
  const std::exception_ptr foreground_error = run_captured(foreground);
  // The background task references caller-owned state: whatever the
  // foreground did, it must finish before this frame unwinds.
  help_until_done(batch);
  if (foreground_error) std::rethrow_exception(foreground_error);
  rethrow_lowest_error(batch);
}

std::size_t ThreadPool::parse_width(const char* text) {
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value <= 0 ||
      static_cast<unsigned long>(value) > kMaxWidth) {
    return 0;
  }
  return static_cast<std::size_t>(value);
}

std::size_t ThreadPool::default_width() {
  if (const std::size_t env = parse_width(std::getenv("CIMANNEAL_THREADS"));
      env > 0) {
    return env;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(default_width());
  g_shared_pool.store(&pool, std::memory_order_release);
  return pool;
}

const ThreadPool* ThreadPool::shared_if_created() {
  return g_shared_pool.load(std::memory_order_acquire);
}

std::size_t ThreadPool::current_worker_index() { return t_worker_index; }

}  // namespace cim::util
