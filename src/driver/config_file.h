// Text experiment configuration for the anu_sim command-line tool.
//
// Line-oriented `key value...` format. Words are separated by spaces or
// tabs; a word that starts with '#' makes the rest of its line a comment,
// and blank lines are ignored. Every value is read whole: `2000x`, a
// missing value or a word left over is an error naming its line. Every
// key, with its default or an example value:
//
//   workload synthetic            # or: trace
//   seed 42
//   file_sets 50
//   requests 66401
//   duration_min 200
//   utilization 0.55              # offered load, in (0, 1)
//   speeds 1 3 5 7 9              # one per server
//   system anu                    # anu | simple | prescient | vp | jsqd
//                                 # | jiq | redundancy
//   vp_per_server 5               # vp system only
//   placement_choices 1           # anu: 1..8 (SIEVE multiple choice)
//   jsq_d 2                       # jsqd: servers sampled, 1..8
//   jsq_speed_aware 0             # jsqd: 1 = speed-weighted sampling
//   jiq_policy fifo               # jiq: fifo | lifo | fastest
//   jiq_weighted_fallback 1       # jiq: 1 = speed-weighted busy fallback
//   red_d 2                       # redundancy: replicas, 1..8
//   red_cancel complete           # redundancy: start | complete
//   red_speed_aware 0             # redundancy: 1 = speed-weighted replicas
//   strategy_seed 7               # seed of jsqd, jiq and redundancy
//   tuning_interval_s 120
//   move_penalty_s 0
//   cache_penalty_x 1             # cold-cache model: demand multiplier
//   cache_warmup_requests 20
//   control_delay_s 0             # control-plane pipeline latency
//   fail 30 1                     # minute, server
//   recover 50 1
//   add 80 9.0                    # minute, speed
//   remove 120 0
//   degrade 140 2 0.25            # minute, server, speed factor (gray)
//   restore 160 2                 # minute, server
//   trace_file path.trace         # workload trace: replay this file
//   csv_out series.csv            # optional latency-series CSV
//   trace_out run.json            # event trace (.jsonl -> JSONL, else
//                                 # Chrome trace_event; docs/observability.md)
//   manifest_out run.manifest.json  # per-run telemetry manifest
//
// Membership events must appear in time order.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "driver/balancer_factory.h"
#include "driver/experiment.h"
#include "workload/synthetic.h"
#include "workload/trace.h"

namespace anu::driver {

struct SimSpec {
  enum class WorkloadKind { kSynthetic, kTrace };
  WorkloadKind workload = WorkloadKind::kSynthetic;
  workload::SyntheticConfig synthetic;
  workload::TraceSynthConfig trace;
  /// Non-empty: replay this trace file instead of synthesizing.
  std::string trace_file;

  SystemConfig system;
  ExperimentConfig experiment;
  std::string csv_out;
  /// Event-trace output path ("" = tracing off). Extension picks the
  /// format: .jsonl -> JSONL, anything else -> Chrome trace_event.
  std::string trace_out;
  /// Telemetry-manifest output path ("" = off). See docs/observability.md.
  std::string manifest_out;
};

/// "synthetic" or "trace": the `workload` key's values.
[[nodiscard]] const char* workload_kind_name(SimSpec::WorkloadKind kind);

struct ConfigError {
  std::size_t line = 0;
  std::string message;
};

/// Parses the format above. Returns nullopt and fills `error` on failure.
std::optional<SimSpec> parse_sim_config(std::istream& is,
                                        ConfigError* error = nullptr);
std::optional<SimSpec> parse_sim_config_file(const std::string& path,
                                             ConfigError* error = nullptr);

/// Every key the format accepts, in the parser's table order.
[[nodiscard]] std::vector<std::string_view> sim_config_keys();

/// Replays a membership script against the up/down state of a cluster that
/// starts with `initial_servers` servers, so a script the run cannot apply
/// is rejected before it aborts the run. Returns the index of the first
/// event that cannot apply, with the reason in `message`.
std::optional<std::size_t> invalid_membership_event(
    const cluster::FailureSchedule& script, std::size_t initial_servers,
    std::string* message);

/// Builds the workload a spec describes (synthesizes or loads the trace).
/// Returns nullopt with `error` if a trace file fails to parse.
std::optional<workload::Workload> build_workload(const SimSpec& spec,
                                                 ConfigError* error = nullptr);

}  // namespace anu::driver
