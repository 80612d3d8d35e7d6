// Event-kernel throughput: the queue-heavy scenario that gates the ladder
// queue + slab storage against regression.
//
// Unlike gbench_sim (whose BENCH json counts benchmark iterations across
// every scenario), this harness counts real simulation events, so its
// events_per_sec is the kernel's dispatch throughput and the checked-in
// baseline is a direct floor on it. Three workloads, weighted toward the
// patterns the experiment driver produces:
//
//   dispatch — pre-scheduled calendar drained to completion (arrival
//              bursts); exercises top transfer, rung scatter, bucket sort.
//   churn    — schedule, cancel half, drain (timer churn of Server::fail()
//              and monitor re-arms); exercises handle cancellation and
//              slab slot recycling.
//
// Deliberately queue-heavy only: the one-pending-event chain pattern is
// queue-light and lives in gbench_sim (BM_EventScheduleInterleaved).
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "sim/simulation.h"

using namespace anu;
using namespace anu::sim;

namespace {

std::uint64_t run_dispatch(std::size_t batch) {
  Simulation sim;
  for (std::size_t i = 0; i < batch; ++i) {
    sim.schedule_at(static_cast<double>(i), [] {});
  }
  return sim.run_to_completion();
}

std::uint64_t run_churn(std::size_t batch) {
  Simulation sim;
  std::vector<TimerHandle> handles;
  handles.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    handles.push_back(sim.schedule_at(
        static_cast<double>(i % 97) + static_cast<double>(i) * 1e-4, [] {}));
  }
  for (std::size_t i = 0; i < batch; i += 2) handles[i].cancel();
  // Cancelled events still transit the queue; count them as kernel work.
  sim.run_to_completion();
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  anu::bench::BenchReport report(&argc, argv);
  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
  }
  const int passes = short_mode ? 2 : 6;
  const std::size_t batch = 1u << 16;  // 65 536 events per workload pass

  std::uint64_t events = 0;
  for (int pass = 0; pass < passes; ++pass) {
    events += run_dispatch(batch);
    events += run_churn(batch);
  }
  report.add_events(events);
  std::printf("event kernel: %llu events across %d passes "
              "(dispatch/churn)\n",
              static_cast<unsigned long long>(events), passes);
  bench::note("events_per_sec in the BENCH json is true kernel dispatch");
  bench::note("throughput; bench_compare gates it against the baseline.");
  return 0;
}
