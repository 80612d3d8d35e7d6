// Heap allocations the experiment drivers make per completed request.
//
// This binary replaces the global operator new/delete with counting
// forwards to std::malloc/std::free, so ASan and TSan still see every
// block. Counting is on only inside run_experiment or
// run_protocol_experiment: workload generation, balancer and fault-plan
// construction are not charged. Both drivers run their requests through
// the same request loop. The event slab, the replica group table, the FIFO
// queues and the latency windows all reuse storage, and a queued job is
// plain data; what remains is growth to a new high-water mark and
// per-round work: tuning results, and under the message protocol each
// round's messages and region maps.
//
// The live runtime's event loop is held to a stricter bound: once warm, an
// iteration that polls a readable fd and fires a due timer allocates
// nothing.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "cluster/failure_schedule.h"
#include "driver/balancer_factory.h"
#include "driver/experiment.h"
#include "driver/paper.h"
#include "driver/protocol_experiment.h"
#include "faults/fault_plan.h"
#include "runtime/event_loop.h"
#include "runtime/realtime_clock.h"
#include "runtime/time_source.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size, std::size_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* counted_new(std::size_t size, std::size_t align) {
  void* p = counted_malloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size, 0); }
void* operator new[](std::size_t size) { return counted_new(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_new(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_new(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_malloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_malloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace anu::driver {
namespace {

/// Allocations inside `run` (one §5.1 synthetic run), per completed
/// request.
template <class Run>
double measure_allocations_per_request(Run&& run) {
  g_allocations.store(0);
  g_counting.store(true);
  const ExperimentResult result = run();
  g_counting.store(false);
  EXPECT_GT(result.requests_completed, 60'000u);
  const double per_request = static_cast<double>(g_allocations.load()) /
                             static_cast<double>(result.requests_completed);
  ::testing::Test::RecordProperty("allocations_per_request",
                                  std::to_string(per_request));
  return per_request;
}

double allocations_per_request(const SystemConfig& system) {
  const workload::Workload workload = paper_synthetic_workload();
  const ExperimentConfig config = paper_experiment_config();
  auto balancer = make_balancer(system, config.cluster.server_speeds.size());
  return measure_allocations_per_request(
      [&] { return run_experiment(config, workload, *balancer); });
}

TEST(Allocation, AnuRunAllocatesLessThanOncePerRequest) {
  SystemConfig system;
  system.kind = SystemKind::kAnu;
  EXPECT_LT(allocations_per_request(system), 0.05);
}

TEST(Allocation, RedundancyCancelOnCompleteAllocatesLessThanOncePerRequest) {
  SystemConfig system;
  system.kind = SystemKind::kRedundancyD;
  system.red.d = 2;
  system.red.cancel = balance::RedundancyDConfig::CancelMode::kOnComplete;
  EXPECT_LT(allocations_per_request(system), 0.02);
}

TEST(Allocation, RedundancyCancelOnStartAllocatesLessThanOncePerRequest) {
  SystemConfig system;
  system.kind = SystemKind::kRedundancyD;
  system.red.d = 3;
  system.red.cancel = balance::RedundancyDConfig::CancelMode::kOnStart;
  EXPECT_LT(allocations_per_request(system), 0.02);
}

TEST(Allocation, ProtocolRunAllocatesLessThanOncePerRequest) {
  const workload::Workload workload = paper_synthetic_workload();
  ProtocolExperimentConfig config;
  config.cluster = cluster::paper_cluster();
  faults::FaultPlanConfig fault_config;
  fault_config.loss = 0.02;
  faults::FaultPlan plan(fault_config);
  config.faults = &plan;
  config.failures = cluster::FailureSchedule::random_fail_recover(
      7, 5, 4, 0.8 * workload.span(), 240.0);
  EXPECT_LT(measure_allocations_per_request(
                [&] { return run_protocol_experiment(config, workload); }),
            0.25);
}

}  // namespace
}  // namespace anu::driver

namespace anu::runtime {
namespace {

TEST(Allocation, EventLoopIterationAllocatesNothing) {
  ManualTimeSource source;
  RealtimeClock clock(source);
  EventLoop loop(clock);
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  std::uint64_t reads = 0;
  loop.add_fd(fds[0], [&] {
    char byte = 0;
    if (::read(fds[0], &byte, 1) == 1) ++reads;
  });
  PeriodicTimer timer(clock, 1e-3, [](SimTime) {});

  // Each iteration: one readable fd and one due timer.
  const auto iterate = [&] {
    const char byte = 'x';
    ASSERT_EQ(::write(fds[1], &byte, 1), 1);
    source.advance_by(1e-3);
    loop.run_once(0.0);
  };
  for (int i = 0; i < 16; ++i) iterate();  // warm the calendar's storage
  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < 1000; ++i) iterate();
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(reads, 1016u);
  EXPECT_EQ(timer.ticks_fired(), 1016u);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace anu::runtime
