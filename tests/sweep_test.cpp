// Tests for the parallel sweep utility (ctest label: pool).
#include "driver/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

namespace anu::driver {
namespace {

TEST(Sweep, RunsAllJobs) {
  std::atomic<int> counter{0};
  run_indexed(50, [&](std::size_t) { ++counter; }, 4);
  EXPECT_EQ(counter.load(), 50);
}

TEST(Sweep, EmptyJobListIsNoop) {
  run_indexed(0, [](std::size_t) {}, 4);  // must not hang or crash
}

TEST(Sweep, SingleThreadFallback) {
  int counter = 0;  // non-atomic: safe because threads == 1
  run_indexed(10, [&](std::size_t) { ++counter; }, 1);
  EXPECT_EQ(counter, 10);
}

TEST(Sweep, ParallelMapPreservesOrder) {
  const std::function<int(std::size_t)> square = [](std::size_t i) {
    return static_cast<int>(i * i);
  };
  const auto results = parallel_map<int>(20, square, 4);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * i));
  }
}

TEST(Sweep, MoreThreadsThanJobs) {
  std::atomic<int> counter{0};
  run_indexed(1, [&](std::size_t) { ++counter; }, 16);
  EXPECT_EQ(counter.load(), 1);
}

// Regression: an exception escaping a worker thread used to reach the
// thread boundary and call std::terminate. It must instead surface on the
// calling thread, after every worker has joined.
TEST(Sweep, ThrowingJobRethrowsOnCaller) {
  const auto job = [](std::size_t i) {
    if (i == 7) throw std::runtime_error("job 7 failed");
  };
  EXPECT_THROW(run_indexed(32, job, 4), std::runtime_error);
}

TEST(Sweep, ThrowingJobAbandonsUnstartedJobs) {
  // Poisoned jobs among healthy ones: jobs claimed after the failure is
  // flagged must not run. Each participant meets a poisoned job before it
  // can run all the healthy ones. Both claim from one counter in
  // increasing order, so the first claim, index 0, is poisoned, and the
  // other participant reaches the second poison, index 501, after at most
  // 500 healthy jobs, however long the first throw takes to be caught.
  // The inline path runs index 0 first.
  std::atomic<int> ran{0};
  const auto job = [&](std::size_t i) {
    if (i == 0 || i == 501) throw std::logic_error("poison");
    ++ran;
  };
  EXPECT_THROW(run_indexed(1002, job, 2), std::logic_error);
  EXPECT_LT(ran.load(), 1000);
}

TEST(Sweep, FirstExceptionWinsWhenSeveralThrow) {
  // All jobs throw; exactly one exception must come back (and not crash).
  const auto job = [](std::size_t) { throw std::runtime_error("boom"); };
  EXPECT_THROW(run_indexed(16, job, 8), std::runtime_error);
}

TEST(Sweep, SingleThreadPathAlsoPropagates) {
  const auto job = [](std::size_t) { throw std::runtime_error("solo"); };
  EXPECT_THROW(run_indexed(1, job, 1), std::runtime_error);
}

}  // namespace
}  // namespace anu::driver
