// anu_sim — config-driven cluster load-management simulator.
//
// Usage:
//   anu_sim [options] <config-file>  # run the configured system
//   anu_sim --compare <config-file>  # run every system, compare
//   anu_sim --example                # print a commented example config
//   anu_sim --chaos-seed <n> [--chaos-profile <p>]  # chaos run
//   anu_sim --seeds <n> [--jobs <m>] [--json-out <f>] [config|chaos opts]
//   anu_sim --matrix [--matrix-out <dir>] [matrix opts] [<config-file>]
//
// Options:
//   --trace-out <file>     write the event trace (.jsonl -> JSONL, else
//                          Chrome trace_event, loadable in ui.perfetto.dev)
//   --manifest-out <file>  write the per-run telemetry manifest (JSON)
//   --strategy <name>      override the config's `system` (any name
//                          parse_system_kind accepts, plus jsqdw for
//                          speed-aware JSQ(d)); run and batch modes
//   --chaos-seed <n>       run a seeded chaos scenario through the full
//                          protocol experiment and check its convergence
//                          invariants (docs/chaos.md); exits 1 on violation
//   --chaos-profile <p>    light | heavy | partition | degrade | mixed
//                          (default mixed)
//   --seeds <n>            batch mode: fan the experiment out across n
//                          derived seeds, run by this thread and up to
//                          --jobs - 1 helper threads, and report mean /
//                          95% CI aggregates (docs/ci.md)
//   --jobs <m>             batch parallelism cap (0 = all cores); never
//                          affects results, only wall time
//   --json-out <file>      batch mode: write the versioned results JSON
//   --matrix               scenario-matrix mode: sweep heterogeneity
//                          profiles x server counts x loads x strategies,
//                          one multi-seed batch per cell (docs/strategies.md)
//   --matrix-out <dir>     matrix output directory (default matrix-out)
//   --profiles <csv>       matrix profiles (uniform,paper,bimodal,extreme)
//   --servers <csv>        matrix cluster sizes (default 5,10,20)
//   --loads <csv>          matrix target utilizations (default 0.45,0.75)
//   --strategies <csv>     matrix strategy tokens (default: all systems)
//
// The first two options override the matching `trace_out` / `manifest_out`
// config keys. Schemas: docs/observability.md.
//
// The config format is documented in src/driver/config_file.h. The tool
// replays the configured workload against the configured system and prints
// the experiment summary; with `csv_out` set it also writes the per-server
// latency time series for plotting.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>

#include "common/parse_number.h"
#include "common/table.h"
#include "driver/batch.h"
#include "driver/chaos.h"
#include "driver/config_file.h"
#include "driver/matrix.h"
#include "driver/telemetry.h"
#include "metrics/consistency.h"
#include "obs/export.h"
#include "obs/trace_sink.h"

using namespace anu;
using namespace anu::driver;

namespace {

constexpr const char* kExample = R"(# anu_sim example configuration
workload synthetic
seed 42
file_sets 50
requests 66401
duration_min 200
utilization 0.55
speeds 1 3 5 7 9
system anu
tuning_interval_s 120
# fail a server mid-run and bring it back:
fail 60 4
recover 90 4
# csv_out latency_series.csv
# trace_out run.trace.json        # Chrome trace; .jsonl for line-JSON
# manifest_out run.manifest.json  # per-run telemetry manifest
)";

/// Command-line output overrides; empty = use the config keys.
struct OutputOptions {
  std::string trace_out;
  std::string manifest_out;
};

/// Applies a --strategy override; false (with message) on unknown token.
bool apply_strategy(const std::string& strategy, SystemConfig* system) {
  if (strategy.empty()) return true;
  const auto sys = strategy_config(strategy, *system);
  if (!sys) {
    std::fprintf(stderr, "unknown strategy: %s\n", strategy.c_str());
    return false;
  }
  *system = *sys;
  return true;
}

/// Parses the config file at `path`, or prints `path:line: message` and
/// returns nullopt.
std::optional<SimSpec> load_config(const char* path) {
  ConfigError error;
  auto spec = parse_sim_config_file(path, &error);
  if (!spec) {
    std::fprintf(stderr, "%s:%zu: %s\n", path, error.line,
                 error.message.c_str());
  }
  return spec;
}

int run(const char* path, const OutputOptions& options,
        const std::string& strategy) {
  auto spec = load_config(path);
  if (!spec) return 1;
  if (!apply_strategy(strategy, &spec->system)) return 1;
  if (!options.trace_out.empty()) spec->trace_out = options.trace_out;
  if (!options.manifest_out.empty()) spec->manifest_out = options.manifest_out;
  ConfigError error;
  const auto workload = build_workload(*spec, &error);
  if (!workload) {
    std::fprintf(stderr, "%s: %s\n", path, error.message.c_str());
    return 1;
  }

  // The manifest wants the trace counters even when no trace file is
  // written, but recording costs memory — only arm the sink when an
  // artifact asked for it.
  std::unique_ptr<obs::TraceSink> sink;
  if (!spec->trace_out.empty() || !spec->manifest_out.empty()) {
    sink = std::make_unique<obs::TraceSink>();
    spec->experiment.trace = sink.get();
  }

  auto balancer = make_balancer(
      spec->system, spec->experiment.cluster.server_speeds.size());
  std::printf("anu_sim: %zu requests / %zu file sets on %zu servers, "
              "system %s\n",
              workload->request_count(), workload->file_set_count(),
              spec->experiment.cluster.server_speeds.size(),
              system_label(spec->system.kind).c_str());
  const auto result = run_experiment(spec->experiment, *workload, *balancer);

  Table summary({"metric", "value"});
  summary.add_row({"requests completed",
                   std::to_string(result.requests_completed)});
  summary.add_row({"mean latency (s)",
                   format_double(result.aggregate.mean(), 4)});
  summary.add_row({"latency stddev", format_double(result.aggregate.stddev(), 4)});
  summary.add_row({"steady-state mean (s)",
                   format_double(result.steady_state.mean(), 4)});
  summary.add_row({"p50 / p95 / p99 (s)",
                   format_double(result.latency_histogram.quantile(0.50), 3) +
                       " / " +
                       format_double(result.latency_histogram.quantile(0.95), 3) +
                       " / " +
                       format_double(result.latency_histogram.quantile(0.99), 3)});
  summary.add_row({"file-set moves", std::to_string(result.total_moved)});
  summary.add_row({"% workload moved (cumulative)",
                   format_double(result.percent_workload_moved, 1)});
  summary.add_row({"replicated state (bytes)",
                   std::to_string(result.shared_state_bytes)});
  const auto consistency =
      metrics::performance_consistency(result.per_server);
  summary.add_row({"per-server latency CV",
                   format_double(consistency.latency_cv, 3)});
  summary.add_row({"tuning rounds", std::to_string(result.tuning_rounds)});
  summary.print(std::cout);

  Table servers({"server", "served", "mean_latency", "utilization"});
  for (std::size_t s = 0; s < result.server_count; ++s) {
    servers.add_row({std::to_string(s), std::to_string(result.served[s]),
                     format_double(result.per_server[s].mean(), 4),
                     format_double(result.utilization[s], 3)});
  }
  servers.print(std::cout);

  if (!spec->csv_out.empty()) {
    std::vector<std::string> headers{"time_s"};
    for (std::size_t s = 0; s < result.server_count; ++s) {
      headers.push_back("server" + std::to_string(s));
    }
    Table series(std::move(headers));
    const std::size_t windows = result.latency_over_time.empty()
                                    ? 0
                                    : result.latency_over_time[0].size();
    for (std::size_t w = 0; w < windows; ++w) {
      std::vector<double> row{result.latency_over_time[0][w].time};
      for (std::size_t s = 0; s < result.server_count; ++s) {
        row.push_back(result.latency_over_time[s][w].value);
      }
      series.add_numeric_row(row, 4);
    }
    if (series.write_csv_file(spec->csv_out)) {
      std::printf("wrote latency series to %s\n", spec->csv_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", spec->csv_out.c_str());
      return 1;
    }
  }

  if (!spec->trace_out.empty()) {
    if (obs::write_trace_file(*sink, spec->trace_out)) {
      std::printf("wrote trace (%zu events, %zu dropped) to %s\n",
                  sink->size(), sink->dropped(), spec->trace_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   spec->trace_out.c_str());
      return 1;
    }
  }
  if (!spec->manifest_out.empty()) {
    if (write_manifest_file(spec->manifest_out, *spec, result, sink.get())) {
      std::printf("wrote manifest to %s\n", spec->manifest_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   spec->manifest_out.c_str());
      return 1;
    }
  }
  return 0;
}

int run_chaos_cli(std::uint64_t seed, ChaosProfile profile,
                  const OutputOptions& options) {
  ChaosConfig config;
  config.seed = seed;
  config.profile = profile;
  std::unique_ptr<obs::TraceSink> sink;
  if (!options.trace_out.empty() || !options.manifest_out.empty()) {
    sink = std::make_unique<obs::TraceSink>();
    config.trace = sink.get();
  }

  std::printf("anu_sim --chaos: profile %s, seed %llu, %zu servers, "
              "%zu requests, horizon %.0fs (faults cease at %.0fs)\n",
              chaos_profile_name(profile),
              static_cast<unsigned long long>(seed), config.servers,
              config.requests, config.horizon,
              config.horizon * kFaultPhaseFraction);
  const ChaosReport report = run_chaos(config);

  Table scenario({"fault", "value"});
  scenario.add_row({"loss", format_double(report.faults.loss, 3)});
  scenario.add_row({"duplicate", format_double(report.faults.duplicate, 3)});
  scenario.add_row({"delay_spike",
                    format_double(report.faults.delay_spike, 3)});
  scenario.add_row({"reorder", format_double(report.faults.reorder, 3)});
  scenario.add_row({"partition_windows",
                    std::to_string(report.faults.partitions.size())});
  scenario.add_row({"membership_events",
                    std::to_string(report.failures.events().size())});
  scenario.print(std::cout);

  const auto& cp = report.result.control_plane;
  Table counters({"counter", "value"});
  counters.add_row({"messages_sent", std::to_string(cp.messages_sent)});
  counters.add_row({"messages_delivered",
                    std::to_string(cp.messages_delivered)});
  counters.add_row({"drops_injected", std::to_string(cp.drops_injected)});
  counters.add_row({"drops_endpoint_down",
                    std::to_string(cp.drops_endpoint_down)});
  counters.add_row({"duplicates_injected",
                    std::to_string(cp.duplicates_injected)});
  counters.add_row({"reliable_sent", std::to_string(cp.reliable_sent)});
  counters.add_row({"retransmits", std::to_string(cp.retransmits)});
  counters.add_row({"acks_received", std::to_string(cp.acks_received)});
  counters.add_row({"duplicates_suppressed",
                    std::to_string(cp.duplicates_suppressed)});
  counters.add_row({"retries_abandoned",
                    std::to_string(cp.retries_abandoned)});
  counters.add_row({"requests_completed",
                    std::to_string(report.result.requests_completed)});
  counters.add_row({"tuning_rounds",
                    std::to_string(report.result.tuning_rounds)});
  counters.print(std::cout);

  if (!options.trace_out.empty()) {
    if (obs::write_trace_file(*sink, options.trace_out)) {
      std::printf("wrote trace (%zu events, %zu dropped) to %s\n",
                  sink->size(), sink->dropped(), options.trace_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.trace_out.c_str());
      return 1;
    }
  }
  if (!options.manifest_out.empty()) {
    // The manifest's config block describes the generated scenario: the
    // cluster the chaos run built plus its membership script (degrade
    // events round-trip through the config format).
    SimSpec spec;
    spec.experiment.horizon = config.horizon;
    spec.experiment.tuning_interval = config.protocol.tuning_interval;
    spec.experiment.failures = report.failures;
    static constexpr double kPaperSpeeds[] = {1.0, 3.0, 5.0, 7.0, 9.0};
    spec.experiment.cluster.server_speeds.clear();
    for (std::size_t s = 0; s < config.servers; ++s) {
      spec.experiment.cluster.server_speeds.push_back(kPaperSpeeds[s % 5]);
    }
    if (write_manifest_file(options.manifest_out, spec, report.result,
                            sink.get())) {
      std::printf("wrote manifest to %s\n", options.manifest_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.manifest_out.c_str());
      return 1;
    }
  }

  if (!report.passed()) {
    std::printf("chaos: %zu invariant violation(s):\n",
                report.violations.size());
    for (const std::string& v : report.violations) {
      std::printf("  - %s\n", v.c_str());
    }
    return 1;
  }
  std::printf("chaos: converged — replicas agree, coverage holds, "
              "counters reconcile\n");
  return 0;
}

/// Default template for `--seeds` with no config file: the paper cluster
/// under a scaled-down synthetic workload, sized so a 64-seed batch stays
/// interactive at --jobs 1 (the determinism check in tests runs exactly
/// that).
SimSpec default_batch_spec() {
  SimSpec spec;
  spec.synthetic.request_count = 4000;
  spec.synthetic.file_set_count = 25;
  spec.synthetic.duration = 2400.0;
  return spec;
}

int run_batch_cli(std::size_t seeds, std::size_t jobs,
                  const std::string& json_out, const char* config_path,
                  bool chaos, std::uint64_t chaos_seed,
                  ChaosProfile chaos_profile, const std::string& strategy) {
  BatchConfig batch;
  batch.seeds = seeds;
  batch.jobs = jobs;
  if (chaos) {
    batch.mode = BatchConfig::Mode::kChaos;
    batch.chaos.profile = chaos_profile;
    batch.base_seed = chaos_seed;
    std::printf("anu_sim --seeds: %zu chaos runs (profile %s), base seed "
                "%llu, jobs %zu\n",
                seeds, chaos_profile_name(chaos_profile),
                static_cast<unsigned long long>(chaos_seed), jobs);
  } else {
    if (config_path) {
      const auto spec = load_config(config_path);
      if (!spec) return 1;
      batch.spec = *spec;
    } else {
      batch.spec = default_batch_spec();
    }
    if (!apply_strategy(strategy, &batch.spec.system)) return 1;
    batch.base_seed = batch.spec.workload == SimSpec::WorkloadKind::kTrace
                          ? batch.spec.trace.seed
                          : batch.spec.synthetic.seed;
    std::printf("anu_sim --seeds: %zu runs of system %s, base seed %llu, "
                "jobs %zu\n",
                seeds, system_label(batch.spec.system.kind).c_str(),
                static_cast<unsigned long long>(batch.base_seed), jobs);
  }

  BatchResult result;
  try {
    result = run_experiment_batch(batch);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "batch failed: %s\n", e.what());
    return 1;
  }

  Table table({"metric", "mean", "ci95", "stddev", "min", "max"});
  for (const auto& [name, a] : result.metrics) {
    table.add_row({name, format_double(a.mean, 4), format_double(a.ci95, 4),
                   format_double(a.stddev, 4), format_double(a.min, 4),
                   format_double(a.max, 4)});
  }
  table.print(std::cout);

  if (!json_out.empty()) {
    if (write_batch_results_file(json_out, batch, result)) {
      std::printf("wrote batch results to %s\n", json_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
      return 1;
    }
  }
  // Chaos batches gate on convergence: any violation in any seed fails.
  for (const auto& [name, a] : result.metrics) {
    if (name == "violations" && a.max > 0.0) {
      std::fprintf(stderr, "batch: convergence violations in at least one "
                           "seed (max %.0f)\n",
                   a.max);
      return 1;
    }
  }
  return 0;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  for (const char c : csv) {
    if (c == ',') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item.push_back(c);
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

/// Matrix-mode dimension overrides; empty = the MatrixConfig defaults.
struct MatrixOptions {
  std::string out_dir;
  std::string profiles;
  std::string servers;
  std::string loads;
  std::string strategies;
};

int run_matrix_cli(std::size_t seeds, std::size_t jobs,
                   const char* config_path, const MatrixOptions& options) {
  MatrixConfig config;
  if (config_path) {
    const auto spec = load_config(config_path);
    if (!spec) return 1;
    config.base = *spec;
    config.base_seed = spec->synthetic.seed;
  }
  if (seeds != 0) config.seeds = seeds;
  config.jobs = jobs;
  if (!options.out_dir.empty()) config.out_dir = options.out_dir;
  if (!options.profiles.empty()) config.profiles = split_csv(options.profiles);
  if (!options.strategies.empty()) {
    config.strategies = split_csv(options.strategies);
  }
  if (!options.servers.empty()) {
    config.server_counts.clear();
    for (const std::string& k : split_csv(options.servers)) {
      const auto servers = parse_number(
          k, std::size_t{1}, std::numeric_limits<std::size_t>::max());
      if (!servers) {
        std::fprintf(stderr, "bad --servers value: %s\n", k.c_str());
        return 2;
      }
      config.server_counts.push_back(*servers);
    }
  }
  if (!options.loads.empty()) {
    config.loads.clear();
    for (const std::string& u : split_csv(options.loads)) {
      // A utilization strictly inside (0, 1).
      const auto load = parse_number(u, 0.0, 1.0);
      if (!load || *load == 0.0 || *load == 1.0) {
        std::fprintf(stderr, "bad --loads value: %s\n", u.c_str());
        return 2;
      }
      config.loads.push_back(*load);
    }
  }

  const std::size_t cell_count = config.profiles.size() *
                                 config.server_counts.size() *
                                 config.loads.size() *
                                 config.strategies.size();
  std::printf("anu_sim --matrix: %zu profiles x %zu sizes x %zu loads x "
              "%zu strategies = %zu cells, %zu seeds each, base seed %llu\n",
              config.profiles.size(), config.server_counts.size(),
              config.loads.size(), config.strategies.size(), cell_count,
              config.seeds,
              static_cast<unsigned long long>(config.base_seed));

  MatrixResult result;
  try {
    result = run_matrix(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "matrix failed: %s\n", e.what());
    return 1;
  }
  print_matrix_summary(std::cout, result);

  const std::string summary_path = config.out_dir + "/matrix-summary.json";
  if (!write_matrix_summary_file(summary_path, config, result)) {
    std::fprintf(stderr, "error: cannot write %s\n", summary_path.c_str());
    return 1;
  }
  std::printf("\nwrote %zu cell files + matrix-summary.json to %s\n",
              result.cells.size(), config.out_dir.c_str());
  return 0;
}

int compare(const char* path) {
  const auto spec = load_config(path);
  if (!spec) return 1;
  ConfigError error;
  const auto workload = build_workload(*spec, &error);
  if (!workload) {
    std::fprintf(stderr, "%s: %s\n", path, error.message.c_str());
    return 1;
  }
  std::printf("anu_sim --compare: %zu requests / %zu file sets on %zu "
              "servers\n",
              workload->request_count(), workload->file_set_count(),
              spec->experiment.cluster.server_speeds.size());

  Table table({"system", "mean_latency", "stddev", "steady_mean", "p99",
               "moves", "state_bytes", "latency_cv"});
  for (SystemKind kind : kAllSystems) {
    SystemConfig system = spec->system;  // carries anu/vp sub-configs
    system.kind = kind;
    auto balancer = make_balancer(
        system, spec->experiment.cluster.server_speeds.size());
    const auto result = run_experiment(spec->experiment, *workload, *balancer);
    const auto consistency =
        metrics::performance_consistency(result.per_server, 0.02);
    table.add_row({system_label(kind),
                   format_double(result.aggregate.mean(), 3),
                   format_double(result.aggregate.stddev(), 3),
                   format_double(result.steady_state.mean(), 3),
                   format_double(result.latency_histogram.quantile(0.99), 3),
                   std::to_string(result.total_moved),
                   std::to_string(result.shared_state_bytes),
                   format_double(consistency.latency_cv, 3)});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] <config-file>\n"
               "       %s --compare <config-file>\n"
               "       %s --example\n"
               "       %s --chaos-seed <n> [--chaos-profile <p>] [options]\n"
               "       %s --seeds <n> [--jobs <m>] [--json-out <file>]\n"
               "          [<config-file> | --chaos-seed <n> "
               "[--chaos-profile <p>]]\n"
               "       %s --matrix [--matrix-out <dir>] [--profiles <csv>]\n"
               "          [--servers <csv>] [--loads <csv>] "
               "[--strategies <csv>]\n"
               "          [--seeds <n>] [--jobs <m>] [<config-file>]\n"
               "options:\n"
               "  --trace-out <file>     write event trace (.jsonl or Chrome)\n"
               "  --manifest-out <file>  write per-run telemetry manifest\n"
               "  --strategy <name>      override the configured system\n"
               "  --chaos-profile <p>    light|heavy|partition|degrade|mixed\n"
               "  --seeds <n>            multi-seed batch; mean + 95%% CI\n"
               "  --jobs <m>             batch parallelism cap (0 = cores)\n"
               "  --json-out <file>      batch results JSON (docs/ci.md)\n"
               "  --matrix               heterogeneity scenario matrix\n"
               "  --matrix-out <dir>     matrix output dir (default "
               "matrix-out)\n",
               argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// Parses all of `text` as a non-negative integer into `out`; on a bad
/// value names it on stderr and returns false.
template <class T>
bool count_arg(const char* flag, const char* text, T& out) {
  const auto parsed =
      parse_number(text, T{0}, std::numeric_limits<T>::max());
  if (!parsed) {
    std::fprintf(stderr, "bad %s value: %s\n", flag, text);
    return false;
  }
  out = *parsed;
  return true;
}

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--example") == 0) {
    std::fputs(kExample, stdout);
    return 0;
  }
  if (argc == 3 && std::strcmp(argv[1], "--compare") == 0) {
    return compare(argv[2]);
  }
  OutputOptions options;
  const char* config = nullptr;
  bool chaos = false;
  std::uint64_t chaos_seed = 0;
  ChaosProfile chaos_profile = ChaosProfile::kMixed;
  bool batch = false;
  std::size_t seeds = 0;
  std::size_t jobs = 0;
  std::string json_out;
  std::string strategy;
  bool matrix = false;
  MatrixOptions matrix_options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--trace-out") == 0 && i + 1 < argc) {
      options.trace_out = argv[++i];
    } else if (std::strcmp(arg, "--manifest-out") == 0 && i + 1 < argc) {
      options.manifest_out = argv[++i];
    } else if (std::strcmp(arg, "--strategy") == 0 && i + 1 < argc) {
      strategy = argv[++i];
    } else if (std::strcmp(arg, "--matrix") == 0) {
      matrix = true;
    } else if (std::strcmp(arg, "--matrix-out") == 0 && i + 1 < argc) {
      matrix_options.out_dir = argv[++i];
    } else if (std::strcmp(arg, "--profiles") == 0 && i + 1 < argc) {
      matrix_options.profiles = argv[++i];
    } else if (std::strcmp(arg, "--servers") == 0 && i + 1 < argc) {
      matrix_options.servers = argv[++i];
    } else if (std::strcmp(arg, "--loads") == 0 && i + 1 < argc) {
      matrix_options.loads = argv[++i];
    } else if (std::strcmp(arg, "--strategies") == 0 && i + 1 < argc) {
      matrix_options.strategies = argv[++i];
    } else if (std::strcmp(arg, "--chaos-seed") == 0 && i + 1 < argc) {
      chaos = true;
      if (!count_arg(arg, argv[++i], chaos_seed)) return 2;
    } else if (std::strcmp(arg, "--chaos-profile") == 0 && i + 1 < argc) {
      const auto parsed = parse_chaos_profile(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr, "unknown chaos profile: %s\n", argv[i]);
        return usage(argv[0]);
      }
      chaos_profile = *parsed;
    } else if (std::strcmp(arg, "--seeds") == 0 && i + 1 < argc) {
      batch = true;
      if (!count_arg(arg, argv[++i], seeds)) return 2;
    } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
      if (!count_arg(arg, argv[++i], jobs)) return 2;
    } else if (std::strcmp(arg, "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg[0] == '-') {
      return usage(argv[0]);
    } else if (!config) {
      config = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (matrix) {
    // The matrix owns its strategy list; --strategy / chaos don't compose.
    if (chaos || !strategy.empty() || !json_out.empty()) {
      return usage(argv[0]);
    }
    return run_matrix_cli(seeds, jobs, config, matrix_options);
  }
  if (batch) {
    if (seeds == 0) return usage(argv[0]);
    if (chaos && config) return usage(argv[0]);
    return run_batch_cli(seeds, jobs, json_out, config, chaos, chaos_seed,
                         chaos_profile, strategy);
  }
  if (!json_out.empty() || jobs != 0) return usage(argv[0]);  // batch-only
  if (chaos) {
    if (config) return usage(argv[0]);  // chaos generates its own scenario
    if (!strategy.empty()) return usage(argv[0]);
    return run_chaos_cli(chaos_seed, chaos_profile, options);
  }
  if (!config) return usage(argv[0]);
  return run(config, options, strategy);
}
