#include "driver/config_file.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/parse_number.h"

namespace anu::driver {

namespace {

std::optional<SimSpec> fail(ConfigError* error, std::size_t line,
                            std::string message) {
  if (error) *error = ConfigError{line, std::move(message)};
  return std::nullopt;
}

constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();
constexpr double kBelowOne = 1 - std::numeric_limits<double>::epsilon() / 2;

/// The file being parsed: the spec so far, where the keys checked after
/// the last line were set, and the current line's words. A line's first
/// problem sticks in `error`; every later read returns zero and no word.
struct Reader {
  SimSpec spec;
  std::size_t lineno = 0;
  std::size_t file_sets_line = 0;  // 0 = default
  std::size_t requests_line = 0;
  std::vector<std::size_t> membership_lines;
  SimTime last_event = 0.0;
  std::vector<std::string_view> words;  // words[0] is the key
  std::size_t next = 1;
  std::string error;

  /// The next word, or "" with `<key>: expected <what>` recorded.
  std::string_view word(const std::string& what) {
    if (error.empty() && next == words.size()) {
      error = std::string(words[0]) + ": expected " + what;
    }
    return error.empty() ? words[next++] : std::string_view();
  }

  /// The next word through `lookup` (word -> optional value); a word it
  /// refuses is recorded as `<key>: expected <what>, got '<word>'`.
  template <class Lookup>
  auto read(const std::string& what, Lookup lookup) {
    const std::string_view text = word(what);
    auto value = lookup(text);
    if (!value && error.empty()) {
      error = std::string(words[0]) + ": expected " + what + ", got '" +
              std::string(text) + "'";
    }
    return value.value_or(typename decltype(value)::value_type{});
  }

  template <class T>
  T number(const char* what, T lo, T hi = std::numeric_limits<T>::max()) {
    return read(what, [&](auto t) { return parse_number(t, lo, hi); });
  }

  /// One of E's names 0..last, spelled as `name_of` prints them.
  template <class E, class NameOf>
  E name(E last, NameOf name_of) {
    std::string names = name_of(E{});
    for (int i = 1; i <= static_cast<int>(last); ++i) {
      names.append(" | ").append(name_of(static_cast<E>(i)));
    }
    return read(names, [&](auto t) { return parse_name(t, last, name_of); });
  }

  std::uint64_t seed() { return number<std::uint64_t>("a seed", 0); }
  template <class T = std::size_t>
  T count() { return number<T>("a count >= 1", 1); }
  std::uint32_t one_to_eight() { return number("1..8", 1u, 8u); }
  bool flag() { return number("0 or 1", 0u, 1u) == 1; }
  double positive() { return number("a number > 0", kAboveZero, kMax); }
  double non_negative() { return number("a number >= 0", 0.0, kMax); }
  /// Minutes as seconds, at least `lo` minutes and finite in seconds.
  SimTime minutes(const char* what, double lo) {
    return number(what, lo, kMax / 60.0) * 60.0;
  }
};

/// fail, recover, remove, degrade, restore and add, named as
/// cluster::action_name prints them: the minute, then a server (add: the
/// new server's speed), then degrade's speed factor.
void membership(Reader& in) {
  using cluster::MembershipAction;
  const MembershipAction last = MembershipAction::kRestore;
  const auto key = parse_name(in.words[0], last, cluster::action_name);
  const MembershipAction action = key.value();  // the six rows' names
  const SimTime when = in.minutes("a minute >= 0", 0.0);
  cluster::MembershipEvent event{when, action, ServerId(), 0.0};
  if (action == MembershipAction::kAdd) {
    event.speed = in.positive();
  } else {
    event.server = ServerId(in.number<std::uint32_t>("a server id", 0));
  }
  if (action == MembershipAction::kDegrade) {
    event.factor = in.number("a factor in (0, 1]", kAboveZero, 1.0);
  }
  if (in.error.empty() && when < in.last_event) {
    in.error = "membership events out of time order";
  }
  if (!in.error.empty()) return;
  in.last_event = when;
  in.membership_lines.push_back(in.lineno);
  in.spec.experiment.failures.add(event);
}

struct Key {
  std::string_view name;
  void (*apply)(Reader&);
};

constexpr Key kKeys[] = {
    {"workload",
     [](Reader& in) {
       const auto last = SimSpec::WorkloadKind::kTrace;
       in.spec.workload = in.name(last, workload_kind_name);
     }},
    {"seed",
     [](Reader& in) {
       in.spec.synthetic.seed = in.spec.trace.seed = in.seed();
     }},
    {"file_sets",
     [](Reader& in) {
       const std::size_t n = in.count();
       in.spec.synthetic.file_set_count = in.spec.trace.file_set_count = n;
       in.file_sets_line = in.lineno;
     }},
    {"requests",
     [](Reader& in) {
       const std::size_t n = in.count();
       in.spec.synthetic.request_count = in.spec.trace.request_count = n;
       in.requests_line = in.lineno;
     }},
    {"duration_min",
     [](Reader& in) {
       const SimTime duration = in.minutes("minutes > 0", kAboveZero);
       in.spec.synthetic.duration = in.spec.trace.duration = duration;
     }},
    {"utilization",
     [](Reader& in) {
       const double u = in.number("a load in (0, 1)", kAboveZero, kBelowOne);
       in.spec.synthetic.target_utilization = u;
       in.spec.trace.target_utilization = u;
     }},
    {"speeds",
     [](Reader& in) {
       auto& speeds = in.spec.experiment.cluster.server_speeds;
       speeds.clear();
       do {
         speeds.push_back(in.positive());
       } while (in.error.empty() && in.next < in.words.size());
     }},
    {"system",
     [](Reader& in) {
       in.spec.system.kind = in.read("a system name", parse_system_kind);
     }},
    {"jsq_d", [](Reader& in) { in.spec.system.jsq.d = in.one_to_eight(); }},
    {"jsq_speed_aware",
     [](Reader& in) { in.spec.system.jsq.speed_aware = in.flag(); }},
    {"jiq_policy",
     [](Reader& in) {
       const auto last = balance::JiqConfig::TokenPolicy::kFastest;
       in.spec.system.jiq.policy = in.name(last, balance::jiq_policy_name);
     }},
    {"jiq_weighted_fallback",
     [](Reader& in) { in.spec.system.jiq.weighted_fallback = in.flag(); }},
    {"red_d", [](Reader& in) { in.spec.system.red.d = in.one_to_eight(); }},
    {"red_cancel",
     [](Reader& in) {
       const auto last = balance::RedundancyDConfig::CancelMode::kOnComplete;
       in.spec.system.red.cancel = in.name(last, balance::cancel_mode_name);
     }},
    {"red_speed_aware",
     [](Reader& in) { in.spec.system.red.speed_aware = in.flag(); }},
    {"strategy_seed",
     [](Reader& in) {
       SystemConfig& system = in.spec.system;
       system.jsq.seed = system.jiq.seed = system.red.seed = in.seed();
     }},
    {"vp_per_server",
     [](Reader& in) { in.spec.system.vp.vp_per_server = in.count(); }},
    {"placement_choices",
     [](Reader& in) {
       in.spec.system.anu.placement_choices = in.one_to_eight();
     }},
    {"tuning_interval_s",
     [](Reader& in) { in.spec.experiment.tuning_interval = in.positive(); }},
    {"control_delay_s",
     [](Reader& in) { in.spec.experiment.control_delay = in.non_negative(); }},
    {"cache_penalty_x",
     [](Reader& in) {
       auto& cache = in.spec.experiment.cluster.cache;
       cache.cold_penalty_factor = in.number("a factor >= 1", 1.0, kMax);
       cache.enabled = cache.cold_penalty_factor > 1.0;
     }},
    {"cache_warmup_requests",
     [](Reader& in) {
       auto& cache = in.spec.experiment.cluster.cache;
       cache.warmup_requests = in.count<std::uint32_t>();
     }},
    {"move_penalty_s",
     [](Reader& in) {
       in.spec.experiment.move_warmup_penalty = in.non_negative();
     }},
    {"fail", membership},
    {"recover", membership},
    {"remove", membership},
    {"degrade", membership},
    {"restore", membership},
    {"add", membership},
    {"trace_file",
     [](Reader& in) {
       in.spec.trace_file = in.word("a path");
       in.spec.workload = SimSpec::WorkloadKind::kTrace;
     }},
    {"csv_out", [](Reader& in) { in.spec.csv_out = in.word("a path"); }},
    {"trace_out", [](Reader& in) { in.spec.trace_out = in.word("a path"); }},
    {"manifest_out",
     [](Reader& in) { in.spec.manifest_out = in.word("a path"); }},
};

}  // namespace

const char* workload_kind_name(SimSpec::WorkloadKind kind) {
  return kind == SimSpec::WorkloadKind::kTrace ? "trace" : "synthetic";
}

std::vector<std::string_view> sim_config_keys() {
  std::vector<std::string_view> keys;
  for (const Key& key : kKeys) keys.push_back(key.name);
  return keys;
}

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
  Reader in;
  std::string line;
  while (std::getline(is, line)) {
    ++in.lineno;
    in.words = split_words(line);
    if (in.words.empty()) continue;
    const Key* key = std::ranges::find(kKeys, in.words[0], &Key::name);
    if (key == std::end(kKeys)) {
      return fail(error, in.lineno, "unknown key: " + std::string(in.words[0]));
    }
    in.next = 1;
    key->apply(in);
    if (in.error.empty() && in.next < in.words.size()) {
      in.error = std::string(in.words[0]) + ": unexpected word '" +
                 std::string(in.words[in.next]) + "'";
    }
    if (!in.error.empty()) return fail(error, in.lineno, in.error);
  }
  SimSpec& spec = in.spec;
  // Checks that need the whole file: `speeds` may follow the script, and
  // either count may be set after the other.
  const std::size_t file_sets = spec.workload == SimSpec::WorkloadKind::kTrace
                                    ? spec.trace.file_set_count
                                    : spec.synthetic.file_set_count;
  const std::size_t requests = spec.workload == SimSpec::WorkloadKind::kTrace
                                   ? spec.trace.request_count
                                   : spec.synthetic.request_count;
  if (spec.trace_file.empty() && requests < file_sets) {
    return fail(error, std::max(in.file_sets_line, in.requests_line),
                "requests (" + std::to_string(requests) +
                    ") must be at least file_sets (" +
                    std::to_string(file_sets) + ")");
  }
  std::string message;
  if (const auto bad = invalid_membership_event(
          spec.experiment.failures,
          spec.experiment.cluster.server_speeds.size(), &message)) {
    return fail(error, in.membership_lines[*bad], message);
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
