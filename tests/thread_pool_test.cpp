// Tests for run_indexed, the parallel batch under every sweep: determinism
// at any parallelism level, exception aggregation, nested batches (no
// deadlock, no more jobs at once than cores), and a seeded stress soak
// (ctest label: pool).
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace anu {
namespace {

/// A deterministic per-task computation driven by the (base_seed, index)
/// substream convention — the same shape a multi-seed experiment batch has.
std::uint64_t substream_work(std::uint64_t base, std::size_t index) {
  Xoshiro256 rng(substream_seed(base, index));
  std::uint64_t acc = 0;
  const std::size_t steps = 100 + rng.next_below(400);
  for (std::size_t i = 0; i < steps; ++i) acc ^= rng.next();
  return acc;
}

std::vector<std::uint64_t> run_wave(std::uint64_t base, std::size_t tasks,
                                    std::size_t parallelism) {
  std::vector<std::uint64_t> out(tasks);
  run_indexed(
      tasks, [&](std::size_t i) { out[i] = substream_work(base, i); },
      parallelism);
  return out;
}

/// One job that holds a slot for a short sleep: counts itself in `active`
/// and raises `high_water` to the most jobs seen in flight at once.
void occupy(std::atomic<int>& active, std::atomic<int>& high_water) {
  const int now = ++active;
  int seen = high_water.load();
  while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
  }
  std::this_thread::sleep_for(std::chrono::microseconds(200));
  --active;
}

TEST(ThreadPool, RunsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(500);
  run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  run_indexed(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, SameResultsAtAnyParallelism) {
  // The determinism contract behind `anu_sim --jobs`: bit-identical output
  // whether the batch runs inline or 8-wide.
  const auto sequential = run_wave(42, 200, 1);
  for (const std::size_t jobs : {2u, 3u, 8u, 64u}) {
    EXPECT_EQ(run_wave(42, 200, jobs), sequential) << jobs;
  }
}

TEST(ThreadPool, ParallelismCapIsStructural) {
  // At most `cap` tasks can ever be in flight: the batch has at most cap
  // participants (caller + cap-1 helpers), so the high-water mark cannot
  // exceed it even under scheduling jitter.
  constexpr std::size_t kCap = 3;
  std::atomic<int> active{0};
  std::atomic<int> high_water{0};
  run_indexed(64, [&](std::size_t) { occupy(active, high_water); }, kCap);
  EXPECT_LE(high_water.load(), static_cast<int>(kCap));
  EXPECT_GE(high_water.load(), 1);
}

TEST(ThreadPool, MidBatchExceptionPropagatesToCaller) {
  std::atomic<int> ran{0};
  try {
    run_indexed(64, [&](std::size_t i) {
      if (i == 13) throw std::runtime_error("task 13 failed");
      ++ran;
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 13 failed");
  }
  EXPECT_LT(ran.load(), 64);
}

TEST(ThreadPool, AllThrowingTasksYieldOneException) {
  EXPECT_THROW(run_indexed(
                   32, [](std::size_t) { throw std::logic_error("boom"); }),
               std::logic_error);
}

TEST(ThreadPool, PoolSurvivesFailedBatch) {
  // A failed batch must leave run_indexed usable: the next batch runs
  // every index, not wedged.
  EXPECT_THROW(run_indexed(
                   16, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> count{0};
  run_indexed(100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

// Regression: a naive pool turns a nested parallel call into a deadlock —
// every worker blocks waiting for subtasks that no free worker exists to
// run. Here the caller always works through its own batch, and an inner
// batch that finds the helper budget used up runs inline, so nested
// batches complete however few helpers are left.
TEST(ThreadPool, NestedSubmitDoesNotDeadlock) {
  std::atomic<int> inner_total{0};
  run_indexed(4, [&](std::size_t) {
    run_indexed(8, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, DeeplyNestedBatches) {
  std::atomic<int> leaves{0};
  run_indexed(3, [&](std::size_t) {
    run_indexed(3, [&](std::size_t) {
      run_indexed(3, [&](std::size_t) { ++leaves; });
    });
  });
  EXPECT_EQ(leaves.load(), 27);
}

TEST(ThreadPool, NestedBatchesStayWithinTheCoreCount) {
  // Helpers come from one process-wide budget of hardware_concurrency() - 1,
  // so three nested levels that each ask for every core still run at most
  // one job per core at once: the caller plus the live helpers.
  std::atomic<int> active{0};
  std::atomic<int> high_water{0};
  const auto leaf = [&](std::size_t) { occupy(active, high_water); };
  run_indexed(
      8,
      [&](std::size_t) {
        run_indexed(8, [&](std::size_t) { run_indexed(8, leaf, 0); }, 0);
      },
      0);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_LE(high_water.load(), static_cast<int>(cores));
  EXPECT_GE(high_water.load(), 1);
}

TEST(ThreadPool, NestedExceptionCrossesBatchBoundary) {
  EXPECT_THROW(run_indexed(2,
                           [&](std::size_t) {
                             run_indexed(4, [](std::size_t i) {
                               if (i == 3) {
                                 throw std::runtime_error("inner");
                               }
                             });
                           }),
               std::runtime_error);
}

// Seeded stress soak (label: pool): many waves of uneven task counts at
// randomized parallelism, every wave validated against its sequential
// twin, so the shared index and helper start/join churn are exercised hard
// but reproducibly — one seed reproduces one schedule of waves.
TEST(ThreadPoolStress, SeededWavesMatchSequential) {
  Xoshiro256 rng(20260806);
  for (int wave = 0; wave < 25; ++wave) {
    const std::uint64_t base = rng.next();
    const std::size_t tasks = 1 + rng.next_below(300);
    const std::size_t jobs = 1 + rng.next_below(16);
    EXPECT_EQ(run_wave(base, tasks, jobs), run_wave(base, tasks, 1))
        << "wave " << wave << " tasks " << tasks << " jobs " << jobs;
  }
}

TEST(ThreadPoolStress, ConcurrentBatchesFromManyThreads) {
  // Several external threads drive batches at once; each must see exactly
  // its own results (batch state is per-call, the helper budget is
  // shared).
  std::vector<std::thread> drivers;
  std::atomic<int> failures{0};
  for (std::uint64_t t = 0; t < 4; ++t) {
    drivers.emplace_back([&failures, t] {
      for (int round = 0; round < 10; ++round) {
        const std::uint64_t base = t * 1000 + static_cast<std::uint64_t>(round);
        if (run_wave(base, 64, 4) != run_wave(base, 64, 1)) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& d : drivers) d.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace anu
