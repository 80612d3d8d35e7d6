// google-benchmark: discrete-event engine throughput — the substrate every
// experiment runs on. Measures raw event dispatch, a server's FIFO
// service loop at several queue depths, workload synthesis (which every
// seed of every experiment pays before it simulates), and the end-to-end
// experiment driver with tracing off vs on (the observability overhead
// contract in docs/observability.md: disabled tracing must cost < 2%).
#include <benchmark/benchmark.h>

#include <optional>

#include "cluster/server.h"
#include "driver/balancer_factory.h"
#include "driver/experiment.h"
#include "obs/trace_sink.h"
#include "sim/simulation.h"
#include "workload/synthetic.h"
#include "workload/trace.h"

namespace {

using namespace anu::sim;

void BM_EventDispatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule_at(static_cast<double>(i), [] {});
    }
    benchmark::DoNotOptimize(sim.run_to_completion());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventDispatch)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_EventChurn(benchmark::State& state) {
  // Schedule-then-cancel-half: the timer-churn pattern of Server::fail()
  // and monitor re-arms. Exercises handle cancellation and slab
  // slot recycling under a clustered (97 distinct times) calendar.
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    std::vector<anu::TimerHandle> handles;
    handles.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      handles.push_back(sim.schedule_at(
          static_cast<double>(i % 97) + static_cast<double>(i) * 1e-4, [] {}));
    }
    for (std::size_t i = 0; i < batch; i += 2) handles[i].cancel();
    benchmark::DoNotOptimize(sim.run_to_completion());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventChurn)->Arg(16384);

void BM_EventScheduleInterleaved(benchmark::State& state) {
  // Each event schedules its successor: the arrival-cursor pattern the
  // experiment driver uses.
  const auto chain = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    std::size_t remaining = chain;
    std::function<void()> next = [&] {
      if (--remaining > 0) sim.schedule_after(1.0, [&next] { next(); });
    };
    sim.schedule_after(1.0, [&next] { next(); });
    benchmark::DoNotOptimize(sim.run_to_completion());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chain));
}
BENCHMARK(BM_EventScheduleInterleaved)->Arg(4096);

void BM_FifoServiceLoop(benchmark::State& state) {
  const auto jobs = static_cast<std::uint32_t>(state.range(0));
  const anu::cluster::ServerHooks hooks;
  for (auto _ : state) {
    Simulation sim;
    anu::cluster::Server server(sim, anu::ServerId(0), 5.0, hooks);
    for (std::uint32_t i = 0; i < jobs; ++i) {
      server.submit(anu::FileSetId(i), 1.0);
    }
    sim.run_to_completion();
    benchmark::DoNotOptimize(server.requests_served());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_FifoServiceLoop)->Arg(1024)->Arg(8192);

// Workload synthesis, per request generated: the §5.1 paper workload,
// perfbench's protocol_churn shape (4,096 file sets, 671k requests over 80
// two-minute rounds on 64 servers), and the paper workload with clustered
// arrivals (Pareto shape 1.01, bound ratio 1e6).
anu::workload::SyntheticConfig churn_shaped() {
  anu::workload::SyntheticConfig config;
  config.file_set_count = 4096;
  config.request_count = 671'446;
  config.duration = 9'600.0;
  config.cluster_capacity = 316.0;
  return config;
}

anu::workload::SyntheticConfig clustered() {
  anu::workload::SyntheticConfig config;
  config.pareto_shape = 1.01;
  config.pareto_bound_ratio = 1e6;
  return config;
}

void BM_SyntheticWorkload(benchmark::State& state,
                          anu::workload::SyntheticConfig config) {
  for (auto _ : state) {
    const auto workload = anu::workload::make_synthetic_workload(config);
    benchmark::DoNotOptimize(workload.requests().data());
    ++config.seed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(config.request_count));
}
BENCHMARK_CAPTURE(BM_SyntheticWorkload, paper, anu::workload::SyntheticConfig{})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SyntheticWorkload, churn_shaped, churn_shaped())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SyntheticWorkload, clustered, clustered())
    ->Unit(benchmark::kMillisecond);

// The DFSTrace-shaped synthesizer behind Fig. 4 (21 file sets, 112,590
// requests over one hour).
void BM_SynthesizeTrace(benchmark::State& state) {
  anu::workload::TraceSynthConfig config;
  for (auto _ : state) {
    const auto workload = anu::workload::synthesize_trace(config);
    benchmark::DoNotOptimize(workload.requests().data());
    ++config.seed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(config.request_count));
}
BENCHMARK(BM_SynthesizeTrace)->Unit(benchmark::kMillisecond);

// End-to-end experiment run, tracing disabled vs enabled. The untraced
// variant is the regression guard for the instrumentation: every emit site
// is a single null-pointer branch, so it must stay within noise of the
// pre-observability driver. The redundancy variant runs the same workload
// through redundancy-d (d = 2, cancel-on-complete), which puts the
// driver's replica race on every request.
void run_experiment_bench(benchmark::State& state,
                          anu::driver::SystemKind kind, bool traced) {
  anu::workload::SyntheticConfig wconfig;
  wconfig.request_count = 8000;
  wconfig.file_set_count = 30;
  wconfig.duration = 1200.0;
  const auto workload = anu::workload::make_synthetic_workload(wconfig);
  anu::driver::ExperimentConfig config;
  config.tuning_interval = 60.0;
  anu::driver::SystemConfig system;
  system.kind = kind;
  // One ring for all iterations, cleared before each run: building the
  // default 1M-event ring (~48 MB) costs more than the run it traces, and
  // an untraced run has no sink at all.
  std::optional<anu::obs::TraceSink> sink;
  if (traced) sink.emplace();
  for (auto _ : state) {
    if (sink) sink->clear();
    config.trace = sink ? &*sink : nullptr;
    auto balancer =
        anu::driver::make_balancer(system, config.cluster.server_speeds.size());
    const auto result =
        anu::driver::run_experiment(config, workload, *balancer);
    benchmark::DoNotOptimize(result.requests_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wconfig.request_count));
}

void BM_ExperimentUntraced(benchmark::State& state) {
  run_experiment_bench(state, anu::driver::SystemKind::kAnu, /*traced=*/false);
}
BENCHMARK(BM_ExperimentUntraced);

void BM_ExperimentTraced(benchmark::State& state) {
  run_experiment_bench(state, anu::driver::SystemKind::kAnu, /*traced=*/true);
}
BENCHMARK(BM_ExperimentTraced);

void BM_ExperimentRedundancy(benchmark::State& state) {
  run_experiment_bench(state, anu::driver::SystemKind::kRedundancyD,
                       /*traced=*/false);
}
BENCHMARK(BM_ExperimentRedundancy);

}  // namespace
