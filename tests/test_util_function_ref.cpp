// The pool's entry points take a util::FunctionRef, which refers to the
// caller's closure instead of copying it: a closure of six references
// runs through ThreadPool::run and StorageBatch::run_epochs without one
// heap allocation (a std::function parameter would heap-hold it). This
// binary replaces the global operator new to count allocations, so it
// holds nothing else.
#include "util/function_ref.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cim/storage.hpp"
#include "noise/schedule.hpp"
#include "noise/sram_model.hpp"
#include "util/thread_pool.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// None is inlined, so GCC never sees malloc() meet operator delete, or
// operator new meet free() (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cim::util {
namespace {

TEST(FunctionRef, SixReferenceClosureRunsPooledWithoutAllocating) {
  constexpr std::size_t kTasks = 64;
  std::vector<std::uint64_t> in(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) in[i] = i;
  std::vector<std::uint64_t> out(kTasks, 0);
  std::uint64_t scale = 3;
  std::uint64_t offset = 7;
  std::uint64_t shift = 1;
  std::uint64_t mask = 0xFF;
  ThreadPool pool(3);
  const auto task = [&in, &out, &scale, &offset, &shift,
                     &mask](std::size_t i) {
    out[i] = ((in[i] * scale + offset) << shift) & mask;
  };
  static_assert(sizeof(task) == 6 * sizeof(void*));

  std::size_t before = g_allocations.load();
  pool.run(kTasks, task);
  EXPECT_EQ(g_allocations.load() - before, 0U) << "ThreadPool::run";
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(out[i], ((i * 3 + 7) << 1) & 0xFF) << "index " << i;
  }

  // A noisy batch of four pooled tasks; the first run_epochs() sizes the
  // batch's scratch and starts the shared pool, the second is measured.
  const noise::SramCellModel model(noise::SramNoiseParams{}, 91);
  std::vector<std::unique_ptr<hw::WeightStorage>> storages;
  std::vector<hw::WeightStorage*> members;
  for (std::uint64_t base : {0ULL, 1ULL << 20}) {
    storages.push_back(hw::make_fast_storage(64, 128, &model, base));
    members.push_back(storages.back().get());
  }
  hw::StorageBatch batch(members);
  ASSERT_GT(batch.tasks(), 1U);
  batch.write(std::vector<std::uint8_t>(batch.weights(), 0x5A));
  const noise::AnnealSchedule schedule;
  std::size_t epochs = 0;
  std::size_t iterations = 0;
  const auto epoch = [&epochs, &iterations, &in, &out, &scale,
                      &mask](std::size_t begin, std::size_t end) {
    ++epochs;
    iterations += end - begin;
    out[epochs % kTasks] = (in[begin % kTasks] * scale) & mask;
  };
  static_assert(sizeof(epoch) == 6 * sizeof(void*));
  batch.run_epochs(schedule, 0, epoch);
  before = g_allocations.load();
  batch.run_epochs(schedule, 0, epoch);
  EXPECT_EQ(g_allocations.load() - before, 0U) << "StorageBatch::run_epochs";
  EXPECT_EQ(iterations, 2 * schedule.total_iterations());
  EXPECT_GT(storages[0]->counters().pseudo_read_flips, 0U);
}

}  // namespace
}  // namespace cim::util
