// The parallel runtime's contracts: every index runs exactly once, the
// lowest-index exception is the one rethrown, nested submission does not
// deadlock, a waiting thread, worker or not, runs only its own batch's
// tasks, run_beside runs its foreground on the caller and surfaces the
// foreground's error only once the background finished, and
// parallel_for_chunks splits a loop the same way on every worker count.
// The stress tests double as the TSan workload for the pool internals.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel_for.hpp"

namespace cim::util {
namespace {

TEST(ThreadPool, RunInvokesEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.run(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_GE(pool.tasks_executed(), kCount);
}

TEST(ThreadPool, ZeroWorkersRunsInlineOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.width(), 0U);
  EXPECT_EQ(pool.threads_created(), 0U);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.run(seen.size(),
           [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, CountZeroIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, LowestIndexExceptionWinsAndAllTasksStillRun) {
  for (const std::size_t width : {1U, 2U, 8U}) {
    ThreadPool pool(width);
    std::atomic<std::size_t> executed{0};
    const auto body = [&](std::size_t i) {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (i == 60 || i == 17 || i == 3) {
        throw std::runtime_error(std::to_string(i));
      }
    };
    try {
      pool.run(100, body);
      FAIL() << "run() swallowed the task exceptions (width " << width << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << "width " << width;
    }
    // The failing batch still executed every task: an exception cancels
    // nothing, it is only reported after the batch drains.
    EXPECT_EQ(executed.load(), 100U) << "width " << width;
  }
}

TEST(ThreadPool, NestedRunFromWorkersDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<std::size_t> inner_total{0};
  pool.run(4, [&](std::size_t) {
    pool.run(8, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 32U);
}

TEST(ThreadPool, WaitingWorkerRunsOnlyItsOwnNestedBatch) {
  // A thread waiting on its nested run() claims only that batch's indices:
  // never another outer task, nor a task of another thread's nested
  // batch, though the outer batch keeps unclaimed indices while nested
  // ones wait. Each thread notes the nested batch it waits on, and every
  // task checks that its thread is either idle or waiting on its batch.
  ThreadPool pool(3);
  thread_local const void* waiting_on = nullptr;
  std::atomic<int> violations{0};
  std::atomic<std::uint64_t> inner_total{0};
  pool.run(64, [&](std::size_t) {
    if (waiting_on != nullptr) violations.fetch_add(1);
    const int nested = 0;
    waiting_on = &nested;
    pool.run(8, [&](std::size_t i) {
      if (waiting_on != nullptr && waiting_on != &nested) {
        violations.fetch_add(1);
      }
      // Enough arithmetic that the nested batch is still open when the
      // other threads look for work.
      std::uint64_t local = 0;
      for (std::uint64_t s = 0; s < 2000; ++s) local += s * s + i;
      inner_total.fetch_add(local == 0 ? 0 : 1, std::memory_order_relaxed);
    });
    waiting_on = nullptr;
  });
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(inner_total.load(), 64U * 8U);
}

TEST(ThreadPool, RunBesideRunsBothOnceWithForegroundOnCaller) {
  for (const std::size_t width : {0U, 1U, 2U, 8U}) {
    ThreadPool pool(width);
    std::atomic<int> background_calls{0};
    int foreground_calls = 0;
    std::size_t foreground_worker = 0;
    pool.run_beside(
        [&] { background_calls.fetch_add(1, std::memory_order_relaxed); },
        [&] {
          ++foreground_calls;
          foreground_worker = ThreadPool::current_worker_index();
        });
    EXPECT_EQ(background_calls.load(), 1) << "width " << width;
    EXPECT_EQ(foreground_calls, 1) << "width " << width;
    EXPECT_EQ(foreground_worker, ThreadPool::kNotAWorker) << "width " << width;
  }
}

TEST(ThreadPool, RunBesideZeroWorkersRunsForegroundThenBackgroundInline) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::string> order;
  std::thread::id background_thread;
  pool.run_beside(
      [&] {
        order.emplace_back("background");
        background_thread = std::this_thread::get_id();
      },
      [&] { order.emplace_back("foreground"); });
  EXPECT_EQ(order, (std::vector<std::string>{"foreground", "background"}));
  EXPECT_EQ(background_thread, caller);
  EXPECT_EQ(pool.threads_created(), 0U);
}

TEST(ThreadPool, RunBesideForegroundErrorWinsAfterBackgroundFinished) {
  for (const std::size_t width : {0U, 1U, 2U}) {
    ThreadPool pool(width);
    std::atomic<bool> background_done{false};
    bool done_at_rethrow = false;
    try {
      pool.run_beside(
          [&] {
            // Outlast the foreground so an early rethrow would be seen.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            background_done.store(true);
            throw std::runtime_error("background");
          },
          [] { throw std::runtime_error("foreground"); });
      FAIL() << "run_beside() swallowed the exceptions (width " << width
             << ")";
    } catch (const std::runtime_error& e) {
      done_at_rethrow = background_done.load();
      EXPECT_STREQ(e.what(), "foreground") << "width " << width;
    }
    EXPECT_TRUE(done_at_rethrow) << "width " << width;
  }
}

TEST(ThreadPool, RunBesideBackgroundErrorSurfacesAlone) {
  for (const std::size_t width : {0U, 1U, 2U}) {
    ThreadPool pool(width);
    bool foreground_ran = false;
    EXPECT_THROW(
        pool.run_beside([] { throw std::runtime_error("background"); },
                        [&] { foreground_ran = true; }),
        std::runtime_error)
        << "width " << width;
    EXPECT_TRUE(foreground_ran) << "width " << width;
  }
}

TEST(ThreadPool, RunBesideNestedRunWhileBackgroundHoldsOnlyWorker) {
  // The background parks the only worker until the foreground's nested
  // run() has finished: that run() must complete on the caller alone.
  ThreadPool pool(1);
  std::atomic<bool> background_started{false};
  std::atomic<bool> release{false};
  std::atomic<std::size_t> inner_total{0};
  pool.run_beside(
      [&] {
        background_started.store(true);
        while (!release.load()) std::this_thread::yield();
      },
      [&] {
        while (!background_started.load()) std::this_thread::yield();
        pool.run(16, [&](std::size_t) {
          inner_total.fetch_add(1, std::memory_order_relaxed);
        });
        release.store(true);
      });
  EXPECT_EQ(inner_total.load(), 16U);
}

TEST(ThreadPool, CallerHelpsOnlyItsOwnBatch) {
  // While its own run() batches wait, a caller that is not a pool worker
  // may execute only those batches' tasks — never the run_beside
  // background queued just before them, which is left to the worker so
  // that it overlaps the foreground. The foreground waits for the
  // background to start before returning, so the final wait cannot run it
  // on the caller either: any caller index seen is a stolen background.
  ThreadPool pool(1);
  for (int rep = 0; rep < 200; ++rep) {
    std::atomic<bool> background_started{false};
    std::atomic<std::size_t> background_worker{ThreadPool::kNotAWorker};
    std::atomic<std::size_t> inner_total{0};
    pool.run_beside(
        [&] {
          background_worker.store(ThreadPool::current_worker_index());
          background_started.store(true);
        },
        [&] {
          for (int batch = 0; batch < 4; ++batch) {
            pool.run(8, [&](std::size_t) {
              inner_total.fetch_add(1, std::memory_order_relaxed);
            });
          }
          while (!background_started.load()) std::this_thread::yield();
        });
    ASSERT_EQ(inner_total.load(), 32U);
    ASSERT_EQ(background_worker.load(), 0U) << "repetition " << rep;
  }
}

TEST(ThreadPool, ThreadsCreatedNeverGrowsAfterConstruction) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.threads_created(), 3U);
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 200; ++batch) {
    pool.run(7, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200U * 7U);
  EXPECT_EQ(pool.threads_created(), 3U);
}

// TSan stress: many small batches with contended counters, plus enough
// imbalance that the other threads claim the rest of each batch while one
// runs its heavy task.
TEST(ThreadPool, StressManySmallImbalancedBatches) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  for (int batch = 0; batch < 500; ++batch) {
    pool.run(9, [&](std::size_t i) {
      std::uint64_t local = 0;
      // Task 0 is much heavier than the rest → guarantees idle workers.
      const std::uint64_t spins = i == 0 ? 2000 : 10;
      for (std::uint64_t s = 0; s < spins; ++s) local += s * s + i;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  EXPECT_GT(sum.load(), 0U);
  EXPECT_GE(pool.tasks_executed(), 500U * 9U);
}

TEST(ThreadPool, ParseWidth) {
  EXPECT_EQ(ThreadPool::parse_width(nullptr), 0U);
  EXPECT_EQ(ThreadPool::parse_width(""), 0U);
  EXPECT_EQ(ThreadPool::parse_width("abc"), 0U);
  EXPECT_EQ(ThreadPool::parse_width("-3"), 0U);
  EXPECT_EQ(ThreadPool::parse_width("0"), 0U);
  EXPECT_EQ(ThreadPool::parse_width("8x"), 0U);
  EXPECT_EQ(ThreadPool::parse_width("5"), 5U);
  EXPECT_EQ(ThreadPool::parse_width("64"), 64U);
  // Above the ceiling or past strtol's range: malformed, like "8x". Only
  // parsed here — no pool of such a width is ever constructed.
  EXPECT_EQ(ThreadPool::parse_width("1024"), ThreadPool::kMaxWidth);
  EXPECT_EQ(ThreadPool::parse_width("1025"), 0U);
  EXPECT_EQ(ThreadPool::parse_width("100000"), 0U);
  EXPECT_EQ(ThreadPool::parse_width("99999999999999999999"), 0U);
}

TEST(ParallelFor, ChunkCountIsPure) {
  EXPECT_EQ(parallel_chunk_count(0, 16), 0U);
  EXPECT_EQ(parallel_chunk_count(1, 16), 1U);
  EXPECT_EQ(parallel_chunk_count(16, 16), 1U);
  EXPECT_EQ(parallel_chunk_count(17, 16), 2U);
  EXPECT_EQ(parallel_chunk_count(160, 16), 10U);
  EXPECT_EQ(parallel_chunk_count(5, 0), 5U);  // grain 0 clamps to 1
}

TEST(ParallelFor, CoversEveryIndexWithDisjointWrites) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1234;
  std::vector<std::size_t> out(kN, 0);
  parallel_for_chunks(pool, kN, 37, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = i * i;
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelFor, ChunkBoundariesIndependentOfWidth) {
  constexpr std::size_t kN = 1000;
  constexpr std::size_t kGrain = 64;
  const auto boundaries = [&](ThreadPool& pool) {
    std::vector<std::pair<std::size_t, std::size_t>> chunks(
        parallel_chunk_count(kN, kGrain));
    parallel_for_chunks(pool, kN, kGrain,
                        [&](std::size_t begin, std::size_t end) {
                          chunks[begin / kGrain] = {begin, end};
                        });
    return chunks;
  };
  ThreadPool one(1), two(2), eight(8);
  const auto a = boundaries(one);
  const auto b = boundaries(two);
  const auto c = boundaries(eight);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

}  // namespace
}  // namespace cim::util
