// Tests for the parallel sweep utility.
#include "driver/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

namespace anu::driver {
namespace {

TEST(Sweep, RunsAllJobs) {
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 50; ++i) jobs.push_back([&] { ++counter; });
  run_parallel(jobs, 4);
  EXPECT_EQ(counter.load(), 50);
}

TEST(Sweep, EmptyJobListIsNoop) {
  run_parallel({}, 4);  // must not hang or crash
}

TEST(Sweep, SingleThreadFallback) {
  int counter = 0;  // non-atomic: safe because threads == 1
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back([&] { ++counter; });
  run_parallel(jobs, 1);
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
  std::vector<std::function<void()>> jobs{[&] { ++counter; }};
  run_parallel(jobs, 16);
  EXPECT_EQ(counter.load(), 1);
}

// Regression: an exception escaping a worker thread used to reach the
// thread boundary and call std::terminate. It must instead surface on the
// calling thread, after every worker has joined.
TEST(Sweep, ThrowingJobRethrowsOnCaller) {
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 32; ++i) {
    jobs.push_back([i] {
      if (i == 7) throw std::runtime_error("job 7 failed");
    });
  }
  EXPECT_THROW(run_parallel(jobs, 4), std::runtime_error);
}

TEST(Sweep, ThrowingJobAbandonsUnstartedJobs) {
  // Poisoned jobs among healthy ones: jobs claimed after the failure is
  // flagged must not run. Each participant meets a poisoned job before it
  // can run all the healthy ones. The inline path runs index 0 first. In
  // the pool, a participant pops its own shard from the back and steals
  // only once that shard is empty: the helper starts at index 1001, and
  // the caller runs index 0 before it steals. Index 0 alone would be the
  // caller's last job, often run after every healthy one.
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> jobs;
  const auto poison = [] { throw std::logic_error("poison"); };
  jobs.push_back(poison);
  for (int i = 0; i < 1000; ++i) {
    jobs.push_back([&] { ++ran; });
  }
  jobs.push_back(poison);
  EXPECT_THROW(run_parallel(jobs, 2), std::logic_error);
  EXPECT_LT(ran.load(), 1000);
}

TEST(Sweep, FirstExceptionWinsWhenSeveralThrow) {
  // All jobs throw; exactly one exception must come back (and not crash).
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.push_back([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(run_parallel(jobs, 8), std::runtime_error);
}

TEST(Sweep, SingleThreadPathAlsoPropagates) {
  std::vector<std::function<void()>> jobs{
      [] { throw std::runtime_error("solo"); }};
  EXPECT_THROW(run_parallel(jobs, 1), std::runtime_error);
}

}  // namespace
}  // namespace anu::driver
