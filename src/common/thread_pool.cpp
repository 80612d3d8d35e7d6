#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace anu {

namespace {

// Helper threads alive in the process, over every batch. With one caller,
// at most hardware_concurrency() threads run jobs at once.
std::atomic<std::size_t> g_live_helpers{0};

std::size_t helper_budget() {
  static const std::size_t budget =
      std::max(1u, std::thread::hardware_concurrency()) - 1;
  return budget;
}

/// Takes up to `wanted` helpers from the budget; returns how many it got.
std::size_t claim_helpers(std::size_t wanted) {
  const std::size_t budget = helper_budget();
  std::size_t live = g_live_helpers.load();
  std::size_t granted = 0;
  do {
    granted = std::min(wanted, budget - live);  // live never exceeds budget
    if (granted == 0) return 0;
  } while (!g_live_helpers.compare_exchange_weak(live, live + granted));
  return granted;
}

/// One batch's shared state: the next unclaimed index and the first error.
class Batch {
 public:
  Batch(std::size_t count, const std::function<void(std::size_t)>& fn)
      : count_(count), fn_(fn) {}
  Batch(const Batch&) = delete;  // helpers hold its address
  Batch& operator=(const Batch&) = delete;

  /// Claims and runs indices until none is left or a job has failed.
  void participate() {
    for (std::size_t i = next_++; i < count_ && !failed_; i = next_++) {
      try {
        fn_(i);
      } catch (...) {
        const MutexLock lock(error_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
        failed_ = true;
      }
    }
  }

  /// Call once every helper has joined.
  void rethrow_first_error() {
    std::exception_ptr error;
    {
      const MutexLock lock(error_mutex_);
      error = first_error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  const std::size_t count_;
  const std::function<void(std::size_t)>& fn_;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
  Mutex error_mutex_;
  std::exception_ptr first_error_ ANU_GUARDED_BY(error_mutex_);
};

}  // namespace

void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn,
                 std::size_t parallelism) {
  if (parallelism == 0 || parallelism > count) parallelism = count;
  const std::size_t helpers =
      parallelism > 1 ? claim_helpers(parallelism - 1) : 0;
  if (helpers == 0) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  Batch batch(count, fn);
  std::vector<std::thread> threads;
  try {
    threads.reserve(helpers);
    while (threads.size() < helpers) {
      threads.emplace_back([&batch] {
        batch.participate();
        g_live_helpers.fetch_sub(1);
      });
    }
  } catch (...) {
    // A helper that could not start gives its slot back; the batch runs
    // on the threads it has.
    g_live_helpers.fetch_sub(helpers - threads.size());
  }
  batch.participate();
  for (std::thread& t : threads) t.join();
  batch.rethrow_first_error();
}

}  // namespace anu
