// Multi-seed experiment batches with machine-readable results.
//
// The paper's evaluation (§6) reports distributions over many runs, not
// single-seed anecdotes, so the batch runner fans one experiment template
// out across N seeds through driver::run_indexed (driver/sweep.h), derives
// run i's seed as substream_seed(base_seed, i) (common/rng.h), and
// aggregates the scalar metrics of every run into mean / sample stddev /
// 95% confidence interval / min / max.
//
// Determinism contract: the BatchResult — and the serialized results JSON —
// is a pure function of (template config, seeds, base_seed). The `jobs`
// parallelism cap only changes wall time, never a byte of output, which is
// why it is deliberately absent from the JSON artifact. Per-seed rows are
// collected into pre-sized slots in task-index order and aggregated
// sequentially afterwards, so no floating-point reduction depends on
// scheduling.
//
// Schema (docs/ci.md has the field-by-field version):
//   { "schema": "anu.batch_results", "schema_version": 1, "git": ...,
//     "config": {...}, "metrics": {"<name>": {n, mean, stddev, ci95, min,
//     max}, ...}, "per_seed": [{"seed": ..., "<name>": ...}, ...] }
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "driver/chaos.h"
#include "driver/config_file.h"
#include "obs/json.h"

namespace anu::driver {

/// Bumped on any incompatible results-JSON change.
inline constexpr int kBatchSchemaVersion = 1;

struct BatchConfig {
  /// Number of independent runs; run i uses substream_seed(base_seed, i).
  std::size_t seeds = 16;
  /// Parallelism cap for execution (0 = all cores). Never affects results.
  std::size_t jobs = 0;
  std::uint64_t base_seed = 42;

  enum class Mode { kWorkload, kChaos };
  Mode mode = Mode::kWorkload;
  /// Workload mode: the experiment template; the per-run seed overrides the
  /// workload generator seed.
  SimSpec spec;
  /// Chaos mode: the scenario template; the per-run seed overrides the
  /// scenario seed, so every run is a distinct fault schedule.
  ChaosConfig chaos;
};

/// Scalar metrics extracted from one run. Fields double as the aggregation
/// and serialization order (see kBatchMetricNames in batch.cpp).
struct SeedMetrics {
  double mean_latency_s = 0.0;
  double steady_latency_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double latency_cv = 0.0;
  double total_moved = 0.0;
  double percent_workload_moved = 0.0;
  double requests_completed = 0.0;
  double tuning_rounds = 0.0;
  /// Chaos mode: convergence-invariant violations (0 = converged). Always
  /// 0 in workload mode, kept so both modes share one schema.
  double violations = 0.0;
};

/// Distribution summary of one metric across the batch. ci95 is the
/// half-width of the normal-approximation 95% confidence interval of the
/// mean (1.96 * stddev / sqrt(n)); stddev is the sample (n-1) estimate,
/// both 0 when n < 2.
struct MetricAggregate {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct BatchResult {
  /// Derived seed of each run, in task-index order.
  std::vector<std::uint64_t> seeds;
  std::vector<SeedMetrics> per_seed;
  /// (metric name, aggregate) in SeedMetrics field order.
  std::vector<std::pair<std::string, MetricAggregate>> metrics;
};

/// Aggregates one sample vector (exposed for tests).
[[nodiscard]] MetricAggregate aggregate_metric(const std::vector<double>& xs);

/// Runs the batch. Throws (std::runtime_error) if the template is invalid,
/// e.g. a trace file that fails to load.
[[nodiscard]] BatchResult run_experiment_batch(const BatchConfig& config);

/// Serializes config + result into the versioned results document.
[[nodiscard]] obs::Json batch_results_json(const BatchConfig& config,
                                           const BatchResult& result);

/// Writes batch_results_json(...) pretty-printed; false on I/O failure.
bool write_batch_results_file(const std::string& path,
                              const BatchConfig& config,
                              const BatchResult& result);

}  // namespace anu::driver
