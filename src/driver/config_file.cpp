#include "driver/config_file.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace anu::driver {

namespace {

std::optional<SimSpec> fail(ConfigError* error, std::size_t line,
                            std::string message) {
  if (error) *error = ConfigError{line, std::move(message)};
  return std::nullopt;
}

}  // namespace

std::optional<std::size_t> invalid_membership_event(
    const cluster::FailureSchedule& script, std::size_t initial_servers,
    std::string* message) {
  std::vector<bool> up(initial_servers, true);
  const auto& events = script.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const cluster::MembershipEvent& event = events[i];
    if (event.action == cluster::MembershipAction::kAdd) {
      up.push_back(true);
      continue;
    }
    const std::uint32_t id = event.server.value();
    std::string problem;
    if (id >= up.size()) {
      problem = "does not exist (" + std::to_string(up.size()) +
                " servers at that time)";
    } else {
      switch (event.action) {
        case cluster::MembershipAction::kFail:
        case cluster::MembershipAction::kRemove:
          if (!up[id]) {
            problem = "is already down";
          } else if (std::count(up.begin(), up.end(), true) == 1) {
            problem = "is the last server up";
          }
          up[id] = false;
          break;
        case cluster::MembershipAction::kRecover:
          if (up[id]) problem = "is up";
          up[id] = true;
          break;
        case cluster::MembershipAction::kDegrade:
          if (!up[id]) problem = "is down";
          break;
        case cluster::MembershipAction::kRestore:
        case cluster::MembershipAction::kAdd:
          break;
      }
    }
    if (!problem.empty()) {
      *message = std::string(cluster::action_name(event.action)) +
                 ": server " + std::to_string(id) + " " + problem;
      return i;
    }
  }
  return std::nullopt;
}

std::optional<SimSpec> parse_sim_config(std::istream& is, ConfigError* error) {
  SimSpec spec;
  std::string line;
  std::size_t lineno = 0;
  SimTime last_event = 0.0;
  // Where the keys checked after the last line were set (0 = default).
  std::size_t file_sets_line = 0;
  std::size_t requests_line = 0;
  std::vector<std::size_t> membership_lines;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;

    auto want = [&](auto& value, const char* what) {
      if (!(ls >> value)) {
        fail(error, lineno, std::string("expected ") + what + " after " + key);
        return false;
      }
      return true;
    };

    if (key == "workload") {
      std::string kind;
      if (!want(kind, "workload kind")) return std::nullopt;
      if (kind == "synthetic") {
        spec.workload = SimSpec::WorkloadKind::kSynthetic;
      } else if (kind == "trace") {
        spec.workload = SimSpec::WorkloadKind::kTrace;
      } else {
        return fail(error, lineno, "unknown workload kind: " + kind);
      }
    } else if (key == "seed") {
      std::uint64_t seed;
      if (!want(seed, "integer seed")) return std::nullopt;
      spec.synthetic.seed = seed;
      spec.trace.seed = seed;
    } else if (key == "file_sets") {
      std::size_t n;
      if (!want(n, "count")) return std::nullopt;
      if (n == 0) return fail(error, lineno, "file_sets must be positive");
      spec.synthetic.file_set_count = n;
      spec.trace.file_set_count = n;
      file_sets_line = lineno;
    } else if (key == "requests") {
      std::size_t n;
      if (!want(n, "count")) return std::nullopt;
      if (n == 0) return fail(error, lineno, "requests must be positive");
      spec.synthetic.request_count = n;
      spec.trace.request_count = n;
      requests_line = lineno;
    } else if (key == "duration_min") {
      double minutes;
      if (!want(minutes, "minutes")) return std::nullopt;
      if (minutes <= 0.0) return fail(error, lineno, "duration must be > 0");
      spec.synthetic.duration = minutes * 60.0;
      spec.trace.duration = minutes * 60.0;
    } else if (key == "utilization") {
      double u;
      if (!want(u, "fraction")) return std::nullopt;
      if (u <= 0.0 || u >= 1.0) {
        return fail(error, lineno, "utilization must be in (0, 1)");
      }
      spec.synthetic.target_utilization = u;
      spec.trace.target_utilization = u;
    } else if (key == "speeds") {
      std::vector<double> speeds;
      double s;
      while (ls >> s) {
        if (s <= 0.0) return fail(error, lineno, "speeds must be positive");
        speeds.push_back(s);
      }
      if (speeds.empty()) return fail(error, lineno, "speeds needs values");
      spec.experiment.cluster.server_speeds = std::move(speeds);
    } else if (key == "system") {
      std::string name;
      if (!want(name, "system name")) return std::nullopt;
      const auto kind = parse_system_kind(name);
      if (!kind) return fail(error, lineno, "unknown system: " + name);
      spec.system.kind = *kind;
    } else if (key == "jsq_d") {
      std::uint32_t d;
      if (!want(d, "1..8")) return std::nullopt;
      if (d < 1 || d > balance::DispatchDecision::kMaxTargets) {
        return fail(error, lineno, "jsq_d must be 1..8");
      }
      spec.system.jsq.d = d;
    } else if (key == "jsq_speed_aware") {
      std::uint32_t v;
      if (!want(v, "0|1")) return std::nullopt;
      spec.system.jsq.speed_aware = v != 0;
    } else if (key == "jiq_policy") {
      std::string policy;
      if (!want(policy, "fifo|lifo|fastest")) return std::nullopt;
      if (policy == "fifo") {
        spec.system.jiq.policy = balance::JiqConfig::TokenPolicy::kFifo;
      } else if (policy == "lifo") {
        spec.system.jiq.policy = balance::JiqConfig::TokenPolicy::kLifo;
      } else if (policy == "fastest") {
        spec.system.jiq.policy = balance::JiqConfig::TokenPolicy::kFastest;
      } else {
        return fail(error, lineno, "unknown jiq_policy: " + policy);
      }
    } else if (key == "jiq_weighted_fallback") {
      std::uint32_t v;
      if (!want(v, "0|1")) return std::nullopt;
      spec.system.jiq.weighted_fallback = v != 0;
    } else if (key == "red_d") {
      std::uint32_t d;
      if (!want(d, "1..8")) return std::nullopt;
      if (d < 1 || d > balance::DispatchDecision::kMaxTargets) {
        return fail(error, lineno, "red_d must be 1..8");
      }
      spec.system.red.d = d;
    } else if (key == "red_cancel") {
      std::string mode;
      if (!want(mode, "start|complete")) return std::nullopt;
      if (mode == "start") {
        spec.system.red.cancel = balance::RedundancyDConfig::CancelMode::kOnStart;
      } else if (mode == "complete") {
        spec.system.red.cancel =
            balance::RedundancyDConfig::CancelMode::kOnComplete;
      } else {
        return fail(error, lineno, "unknown red_cancel: " + mode);
      }
    } else if (key == "red_speed_aware") {
      std::uint32_t v;
      if (!want(v, "0|1")) return std::nullopt;
      spec.system.red.speed_aware = v != 0;
    } else if (key == "strategy_seed") {
      std::uint64_t seed;
      if (!want(seed, "integer seed")) return std::nullopt;
      spec.system.jsq.seed = seed;
      spec.system.jiq.seed = seed;
      spec.system.red.seed = seed;
    } else if (key == "vp_per_server") {
      std::size_t v;
      if (!want(v, "count")) return std::nullopt;
      if (v == 0) return fail(error, lineno, "vp_per_server must be positive");
      spec.system.vp.vp_per_server = v;
    } else if (key == "placement_choices") {
      std::uint32_t c;
      if (!want(c, "1..8")) return std::nullopt;
      if (c < 1 || c > 8) {
        return fail(error, lineno, "placement_choices must be 1..8");
      }
      spec.system.anu.placement_choices = c;
    } else if (key == "tuning_interval_s") {
      double seconds;
      if (!want(seconds, "seconds")) return std::nullopt;
      if (seconds <= 0.0) return fail(error, lineno, "interval must be > 0");
      spec.experiment.tuning_interval = seconds;
    } else if (key == "control_delay_s") {
      double seconds;
      if (!want(seconds, "seconds")) return std::nullopt;
      if (seconds < 0.0) return fail(error, lineno, "delay must be >= 0");
      spec.experiment.control_delay = seconds;
    } else if (key == "cache_penalty_x") {
      double factor;
      if (!want(factor, "factor >= 1")) return std::nullopt;
      if (factor < 1.0) return fail(error, lineno, "factor must be >= 1");
      spec.experiment.cluster.cache.enabled = factor > 1.0;
      spec.experiment.cluster.cache.cold_penalty_factor = factor;
    } else if (key == "cache_warmup_requests") {
      std::uint32_t n;
      if (!want(n, "count")) return std::nullopt;
      if (n == 0) return fail(error, lineno, "warmup must be positive");
      spec.experiment.cluster.cache.warmup_requests = n;
    } else if (key == "move_penalty_s") {
      double seconds;
      if (!want(seconds, "seconds")) return std::nullopt;
      if (seconds < 0.0) return fail(error, lineno, "penalty must be >= 0");
      spec.experiment.move_warmup_penalty = seconds;
    } else if (key == "fail" || key == "recover" || key == "remove") {
      double minute;
      std::uint32_t server;
      if (!want(minute, "minute")) return std::nullopt;
      if (!want(server, "server id")) return std::nullopt;
      const SimTime when = minute * 60.0;
      if (when < last_event) {
        return fail(error, lineno, "membership events out of time order");
      }
      last_event = when;
      const auto action = key == "recover"
                              ? cluster::MembershipAction::kRecover
                              : key == "remove"
                                    ? cluster::MembershipAction::kRemove
                                    : cluster::MembershipAction::kFail;
      membership_lines.push_back(lineno);
      spec.experiment.failures.add({when, action, ServerId(server), 0.0});
    } else if (key == "degrade") {
      double minute, factor;
      std::uint32_t server;
      if (!want(minute, "minute")) return std::nullopt;
      if (!want(server, "server id")) return std::nullopt;
      if (!want(factor, "factor")) return std::nullopt;
      if (factor <= 0.0 || factor > 1.0) {
        return fail(error, lineno, "degrade factor must be in (0, 1]");
      }
      const SimTime when = minute * 60.0;
      if (when < last_event) {
        return fail(error, lineno, "membership events out of time order");
      }
      last_event = when;
      cluster::MembershipEvent event{
          when, cluster::MembershipAction::kDegrade, ServerId(server), 0.0};
      event.factor = factor;
      membership_lines.push_back(lineno);
      spec.experiment.failures.add(event);
    } else if (key == "restore") {
      double minute;
      std::uint32_t server;
      if (!want(minute, "minute")) return std::nullopt;
      if (!want(server, "server id")) return std::nullopt;
      const SimTime when = minute * 60.0;
      if (when < last_event) {
        return fail(error, lineno, "membership events out of time order");
      }
      last_event = when;
      membership_lines.push_back(lineno);
      spec.experiment.failures.add(
          {when, cluster::MembershipAction::kRestore, ServerId(server), 0.0});
    } else if (key == "add") {
      double minute, speed;
      if (!want(minute, "minute")) return std::nullopt;
      if (!want(speed, "speed")) return std::nullopt;
      if (speed <= 0.0) return fail(error, lineno, "speed must be positive");
      const SimTime when = minute * 60.0;
      if (when < last_event) {
        return fail(error, lineno, "membership events out of time order");
      }
      last_event = when;
      membership_lines.push_back(lineno);
      spec.experiment.failures.add(
          {when, cluster::MembershipAction::kAdd, ServerId(), speed});
    } else if (key == "trace_file") {
      if (!want(spec.trace_file, "path")) return std::nullopt;
      spec.workload = SimSpec::WorkloadKind::kTrace;
    } else if (key == "csv_out") {
      if (!want(spec.csv_out, "path")) return std::nullopt;
    } else if (key == "trace_out") {
      if (!want(spec.trace_out, "path")) return std::nullopt;
    } else if (key == "manifest_out") {
      if (!want(spec.manifest_out, "path")) return std::nullopt;
    } else {
      return fail(error, lineno, "unknown key: " + key);
    }
  }
  // Checks that need the whole file: `speeds` may follow the script, and
  // either count may be set after the other.
  const std::size_t file_sets = spec.workload == SimSpec::WorkloadKind::kTrace
                                    ? spec.trace.file_set_count
                                    : spec.synthetic.file_set_count;
  const std::size_t requests = spec.workload == SimSpec::WorkloadKind::kTrace
                                   ? spec.trace.request_count
                                   : spec.synthetic.request_count;
  if (spec.trace_file.empty() && requests < file_sets) {
    return fail(error, std::max(file_sets_line, requests_line),
                "requests (" + std::to_string(requests) +
                    ") must be at least file_sets (" +
                    std::to_string(file_sets) + ")");
  }
  std::string message;
  if (const auto bad = invalid_membership_event(
          spec.experiment.failures,
          spec.experiment.cluster.server_speeds.size(), &message)) {
    return fail(error, membership_lines[*bad], message);
  }

  // Keep workload capacity assumptions in sync with the cluster.
  double capacity = 0.0;
  for (double s : spec.experiment.cluster.server_speeds) capacity += s;
  spec.synthetic.cluster_capacity = capacity;
  spec.trace.cluster_capacity = capacity;
  return spec;
}

std::optional<SimSpec> parse_sim_config_file(const std::string& path,
                                             ConfigError* error) {
  std::ifstream f(path);
  if (!f) {
    return fail(error, 0, "cannot open " + path);
  }
  return parse_sim_config(f, error);
}

std::optional<workload::Workload> build_workload(const SimSpec& spec,
                                                 ConfigError* error) {
  if (!spec.trace_file.empty()) {
    workload::TraceParseError trace_error;
    auto parsed = workload::read_trace_file(spec.trace_file, &trace_error);
    if (!parsed) {
      if (error) {
        *error = ConfigError{trace_error.line,
                             spec.trace_file + ": " + trace_error.message};
      }
      return std::nullopt;
    }
    return parsed;
  }
  if (spec.workload == SimSpec::WorkloadKind::kTrace) {
    return workload::synthesize_trace(spec.trace);
  }
  return workload::make_synthetic_workload(spec.synthetic);
}

}  // namespace anu::driver
