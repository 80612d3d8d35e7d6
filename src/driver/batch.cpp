#include "driver/batch.h"

#include <cmath>
#include <fstream>
#include <stdexcept>

#include "common/rng.h"
#include "driver/balancer_factory.h"
#include "driver/sweep.h"
#include "metrics/consistency.h"
#include "obs/build_info.h"

namespace anu::driver {

namespace {

struct Field {
  const char* name;
  double SeedMetrics::*member;
};

/// The schema's metric list: names, units and order are frozen under
/// kBatchSchemaVersion.
constexpr Field kFields[] = {
    {"mean_latency_s", &SeedMetrics::mean_latency_s},
    {"steady_latency_s", &SeedMetrics::steady_latency_s},
    {"p50_s", &SeedMetrics::p50_s},
    {"p95_s", &SeedMetrics::p95_s},
    {"p99_s", &SeedMetrics::p99_s},
    {"latency_cv", &SeedMetrics::latency_cv},
    {"total_moved", &SeedMetrics::total_moved},
    {"percent_workload_moved", &SeedMetrics::percent_workload_moved},
    {"requests_completed", &SeedMetrics::requests_completed},
    {"tuning_rounds", &SeedMetrics::tuning_rounds},
    {"violations", &SeedMetrics::violations},
};

SeedMetrics extract_metrics(const ExperimentResult& result,
                            std::size_t violations) {
  SeedMetrics m;
  m.mean_latency_s = result.aggregate.mean();
  m.steady_latency_s = result.steady_state.mean();
  m.p50_s = result.latency_histogram.quantile(0.50);
  m.p95_s = result.latency_histogram.quantile(0.95);
  m.p99_s = result.latency_histogram.quantile(0.99);
  m.latency_cv = metrics::performance_consistency(result.per_server).latency_cv;
  m.total_moved = static_cast<double>(result.total_moved);
  m.percent_workload_moved = result.percent_workload_moved;
  m.requests_completed = static_cast<double>(result.requests_completed);
  m.tuning_rounds = static_cast<double>(result.tuning_rounds);
  m.violations = static_cast<double>(violations);
  return m;
}

SeedMetrics run_one(const BatchConfig& config, std::uint64_t seed) {
  if (config.mode == BatchConfig::Mode::kChaos) {
    ChaosConfig chaos = config.chaos;
    chaos.seed = seed;
    chaos.trace = nullptr;  // per-run tracing is a single-run concern
    const ChaosReport report = run_chaos(chaos);
    return extract_metrics(report.result, report.violations.size());
  }
  SimSpec spec = config.spec;
  spec.synthetic.seed = seed;
  spec.trace.seed = seed;
  // Dispatch strategies draw their own random numbers; give each run an
  // independent stream decorrelated from the workload seed (distinct salts
  // per strategy so jsqd/jiq/redundancy never share draws).
  spec.system.jsq.seed = mix64(seed ^ 0x6a737164ULL);
  spec.system.jiq.seed = mix64(seed ^ 0x6a6971ULL);
  spec.system.red.seed = mix64(seed ^ 0x726564ULL);
  spec.experiment.trace = nullptr;
  ConfigError error;
  const auto workload = build_workload(spec, &error);
  if (!workload) {
    throw std::runtime_error("batch: cannot build workload: " + error.message);
  }
  auto balancer = make_balancer(spec.system,
                                spec.experiment.cluster.server_speeds.size());
  const auto result = run_experiment(spec.experiment, *workload, *balancer);
  return extract_metrics(result, 0);
}

}  // namespace

MetricAggregate aggregate_metric(const std::vector<double>& xs) {
  MetricAggregate a;
  a.n = xs.size();
  if (xs.empty()) return a;
  a.min = xs.front();
  a.max = xs.front();
  double sum = 0.0;
  for (const double x : xs) {
    sum += x;
    if (x < a.min) a.min = x;
    if (x > a.max) a.max = x;
  }
  a.mean = sum / static_cast<double>(a.n);
  if (a.n < 2) return a;
  double ss = 0.0;
  for (const double x : xs) ss += (x - a.mean) * (x - a.mean);
  a.stddev = std::sqrt(ss / static_cast<double>(a.n - 1));
  a.ci95 = 1.96 * a.stddev / std::sqrt(static_cast<double>(a.n));
  return a;
}

BatchResult run_experiment_batch(const BatchConfig& config) {
  BatchResult out;
  out.seeds.resize(config.seeds);
  out.per_seed.resize(config.seeds);
  for (std::size_t i = 0; i < config.seeds; ++i) {
    out.seeds[i] = substream_seed(config.base_seed, i);
  }
  // Each task writes only its own pre-sized slot; aggregation below is
  // sequential in index order, so results cannot depend on `jobs`. This is
  // the disjoint-slot pattern (docs/static-analysis.md): no cross-task
  // shared mutable state exists, so there is nothing to ANU_GUARDED_BY —
  // the batch barrier inside run_indexed is the only synchronization, and
  // it is what makes the slots readable here.
  run_indexed(
      config.seeds,
      [&](std::size_t i) { out.per_seed[i] = run_one(config, out.seeds[i]); },
      config.jobs);
  out.metrics.reserve(std::size(kFields));
  std::vector<double> samples(config.seeds);
  for (const Field& field : kFields) {
    for (std::size_t i = 0; i < config.seeds; ++i) {
      samples[i] = out.per_seed[i].*field.member;
    }
    out.metrics.emplace_back(field.name, aggregate_metric(samples));
  }
  return out;
}

obs::Json batch_results_json(const BatchConfig& config,
                             const BatchResult& result) {
  obs::Json doc = obs::Json::object();
  doc.set("schema", "anu.batch_results");
  doc.set("schema_version", kBatchSchemaVersion);
  doc.set("git", obs::git_describe());

  obs::Json cfg = obs::Json::object();
  cfg.set("mode", config.mode == BatchConfig::Mode::kChaos ? "chaos"
                                                           : "workload");
  cfg.set("seeds", config.seeds);
  cfg.set("base_seed", config.base_seed);
  if (config.mode == BatchConfig::Mode::kChaos) {
    cfg.set("profile", chaos_profile_name(config.chaos.profile));
    cfg.set("servers", config.chaos.servers);
    cfg.set("requests", config.chaos.requests);
    cfg.set("horizon_s", config.chaos.horizon);
  } else {
    cfg.set("system", system_label(config.spec.system.kind));
    cfg.set("servers", config.spec.experiment.cluster.server_speeds.size());
    cfg.set("workload", workload_kind_name(config.spec.workload));
    cfg.set("requests", config.spec.workload == SimSpec::WorkloadKind::kTrace
                            ? config.spec.trace.request_count
                            : config.spec.synthetic.request_count);
    cfg.set("tuning_interval_s", config.spec.experiment.tuning_interval);
  }
  doc.set("config", std::move(cfg));

  obs::Json metrics = obs::Json::object();
  for (const auto& [name, a] : result.metrics) {
    obs::Json entry = obs::Json::object();
    entry.set("n", a.n);
    entry.set("mean", a.mean);
    entry.set("stddev", a.stddev);
    entry.set("ci95", a.ci95);
    entry.set("min", a.min);
    entry.set("max", a.max);
    metrics.set(name, std::move(entry));
  }
  doc.set("metrics", std::move(metrics));

  obs::Json per_seed = obs::Json::array();
  for (std::size_t i = 0; i < result.per_seed.size(); ++i) {
    obs::Json row = obs::Json::object();
    // Decimal string: the derived seeds use all 64 bits, which a JSON
    // double would silently round.
    row.set("seed", std::to_string(result.seeds[i]));
    for (const Field& field : kFields) {
      row.set(field.name, result.per_seed[i].*field.member);
    }
    per_seed.push_back(std::move(row));
  }
  doc.set("per_seed", std::move(per_seed));
  return doc;
}

bool write_batch_results_file(const std::string& path,
                              const BatchConfig& config,
                              const BatchResult& result) {
  std::ofstream os(path);
  if (!os) return false;
  batch_results_json(config, result).write_pretty(os);
  os << '\n';
  return static_cast<bool>(os);
}

}  // namespace anu::driver
