#include "util/thread_pool.hpp"

#include <cerrno>
#include <cstdlib>
#include <exception>

namespace cim::util {

namespace {

/// Set once in worker_loop; kNotAWorker everywhere else.
thread_local std::size_t t_worker_index = ThreadPool::kNotAWorker;

/// Published by shared() after the function-local static constructs, so
/// shared_if_created() can observe the pool without instantiating it.
std::atomic<const ThreadPool*> g_shared_pool{nullptr};

/// Runs `fn`, returning its exception instead of throwing it.
std::exception_ptr run_captured(FunctionRef<void()> fn) {
  try {
    fn();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

}  // namespace

/// One run() call. Lives on the submitting thread's stack for the length
/// of the call; every field but `fn` and `count` is guarded by the pool's
/// mu_.
struct ThreadPool::Batch {
  Batch(FunctionRef<void(std::size_t)> task, std::size_t tasks)
      : fn(task), count(tasks), unfinished(tasks) {}

  const FunctionRef<void(std::size_t)> fn;
  const std::size_t count;
  std::size_t next = 0;  // the next unclaimed index
  std::size_t unfinished;
  /// The exception of the lowest throwing index so far, and that index.
  std::exception_ptr error;
  std::size_t error_index = 0;
  Batch* next_open = nullptr;
};

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
    threads_created_.fetch_add(1, std::memory_order_relaxed);
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

// Every pool task body executes under this loop (or under a waiting
// submitter below): both are determinism-taint roots so no submitted
// task can reach a non-deterministic source unnoticed.
CIM_DETERMINISM_ROOT
void ThreadPool::worker_loop(std::size_t id) {
  t_worker_index = id;
  for (;;) {
    Batch* batch = nullptr;
    std::size_t index = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || open_head_ != nullptr; });
      if (stop_) return;
      batch = open_head_;
      index = claim(*batch);
    }
    execute(*batch, index);
  }
}

void ThreadPool::open(Batch& batch) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    Batch** link = &open_head_;
    while (*link != nullptr) link = &(*link)->next_open;
    *link = &batch;
  }
  if (batch.count >= workers_.size()) {
    work_cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < batch.count; ++i) work_cv_.notify_one();
  }
}

std::size_t ThreadPool::claim(Batch& batch) {
  const std::size_t index = batch.next++;
  if (batch.next == batch.count) {
    Batch** link = &open_head_;
    while (*link != &batch) link = &(*link)->next_open;
    *link = batch.next_open;
  }
  return index;
}

void ThreadPool::execute(Batch& batch, std::size_t index) {
  std::exception_ptr error;
  try {
    batch.fn(index);
  } catch (...) {
    error = std::current_exception();
  }
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  bool finished = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (error && (!batch.error || index < batch.error_index)) {
      batch.error = error;
      batch.error_index = index;
    }
    finished = --batch.unfinished == 0;
  }
  // The submitter may return once the count reads 0, so the Batch is not
  // touched past the lock; the condition variable is the pool's.
  if (finished) done_cv_.notify_all();
}

std::exception_ptr ThreadPool::finish(Batch& batch) {
  for (;;) {
    std::size_t index = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (batch.next == batch.count) {
        done_cv_.wait(lock, [&batch] { return batch.unfinished == 0; });
        return batch.error;
      }
      index = claim(batch);
    }
    execute(batch, index);
  }
}

CIM_DETERMINISM_ROOT
void ThreadPool::run(std::size_t count, FunctionRef<void(std::size_t)> fn) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    // Inline serial execution: index order, so the first throwing index
    // surfaces — the same index the parallel path rethrows.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  Batch batch(fn, count);
  open(batch);
  if (const std::exception_ptr error = finish(batch)) {
    std::rethrow_exception(error);
  }
}

CIM_DETERMINISM_ROOT
void ThreadPool::run_beside(FunctionRef<void()> background,
                            FunctionRef<void()> foreground) {
  std::exception_ptr foreground_error;
  std::exception_ptr background_error;
  if (workers_.empty()) {
    // Inline, foreground first; both always run, as on the pooled path.
    foreground_error = run_captured(foreground);
    background_error = run_captured(background);
  } else {
    const auto task = [&background](std::size_t) { background(); };
    Batch batch(task, 1);
    open(batch);
    foreground_error = run_captured(foreground);
    // The background references caller-owned state: whatever the
    // foreground did, it must finish before this frame unwinds.
    background_error = finish(batch);
  }
  if (foreground_error) std::rethrow_exception(foreground_error);
  if (background_error) std::rethrow_exception(background_error);
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
