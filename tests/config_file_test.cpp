// Tests for the anu_sim configuration parser.
#include "driver/config_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse_number.h"

namespace anu::driver {
namespace {

std::optional<SimSpec> parse(const std::string& text,
                             ConfigError* error = nullptr) {
  std::istringstream is(text);
  return parse_sim_config(is, error);
}

TEST(ConfigFile, EmptyConfigYieldsDefaults) {
  const auto spec = parse("");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->system.kind, SystemKind::kAnu);
  EXPECT_EQ(spec->workload, SimSpec::WorkloadKind::kSynthetic);
  EXPECT_EQ(spec->experiment.cluster.server_speeds.size(), 5u);
}

TEST(ConfigFile, ParsesFullSyntheticSpec) {
  const auto spec = parse(
      "# comment\n"
      "workload synthetic\n"
      "seed 7\n"
      "file_sets 20\n"
      "requests 1000\n"
      "duration_min 10\n"
      "utilization 0.4\n"
      "speeds 1 2 4\n"
      "system vp\n"
      "vp_per_server 3\n"
      "tuning_interval_s 60\n"
      "move_penalty_s 2.5\n");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->synthetic.seed, 7u);
  EXPECT_EQ(spec->synthetic.file_set_count, 20u);
  EXPECT_EQ(spec->synthetic.request_count, 1000u);
  EXPECT_DOUBLE_EQ(spec->synthetic.duration, 600.0);
  EXPECT_DOUBLE_EQ(spec->synthetic.target_utilization, 0.4);
  EXPECT_EQ(spec->experiment.cluster.server_speeds,
            (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_EQ(spec->system.kind, SystemKind::kVirtualProcessor);
  EXPECT_EQ(spec->system.vp.vp_per_server, 3u);
  EXPECT_DOUBLE_EQ(spec->experiment.tuning_interval, 60.0);
  EXPECT_DOUBLE_EQ(spec->experiment.move_warmup_penalty, 2.5);
  // Capacity follows the declared speeds.
  EXPECT_DOUBLE_EQ(spec->synthetic.cluster_capacity, 7.0);
}

TEST(ConfigFile, ParsesMembershipEvents) {
  const auto spec = parse(
      "fail 30 1\n"
      "recover 50 1\n"
      "add 80 9.0\n"
      "remove 120 0\n");
  ASSERT_TRUE(spec.has_value());
  const auto& events = spec->experiment.failures.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].action, cluster::MembershipAction::kFail);
  EXPECT_DOUBLE_EQ(events[0].when, 1800.0);
  EXPECT_EQ(events[0].server, ServerId(1));
  EXPECT_EQ(events[2].action, cluster::MembershipAction::kAdd);
  EXPECT_DOUBLE_EQ(events[2].speed, 9.0);
  EXPECT_EQ(events[3].action, cluster::MembershipAction::kRemove);
}

TEST(ConfigFile, ParsesDegradeRestoreEvents) {
  const auto spec = parse(
      "degrade 140 2 0.25\n"
      "restore 160 2\n");
  ASSERT_TRUE(spec.has_value());
  const auto& events = spec->experiment.failures.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].action, cluster::MembershipAction::kDegrade);
  EXPECT_DOUBLE_EQ(events[0].when, 140.0 * 60.0);
  EXPECT_EQ(events[0].server, ServerId(2));
  EXPECT_DOUBLE_EQ(events[0].factor, 0.25);
  EXPECT_EQ(events[1].action, cluster::MembershipAction::kRestore);
  EXPECT_DOUBLE_EQ(events[1].when, 160.0 * 60.0);
}

TEST(ConfigFile, RejectsBadDegradeFactor) {
  // A degrade factor must land in (0, 1]: 0 would be a failure, >1 a boost.
  EXPECT_FALSE(parse("degrade 10 0 0\n").has_value());
  EXPECT_FALSE(parse("degrade 10 0 1.5\n").has_value());
  EXPECT_FALSE(parse("degrade 10 0 -0.3\n").has_value());
  EXPECT_FALSE(parse("degrade 10 0\n").has_value());
  ConfigError error;
  EXPECT_FALSE(parse("degrade 10 0 2\n", &error).has_value());
  EXPECT_EQ(error.line, 1u);
}

TEST(ConfigFile, RejectsOutOfOrderEvents) {
  ConfigError error;
  EXPECT_FALSE(parse("fail 50 1\nrecover 30 1\n", &error).has_value());
  EXPECT_EQ(error.line, 2u);
}

// Inputs that used to pass the parser and then abort the run on a
// precondition. Each is rejected with the line that makes it invalid, once
// the whole file is read.
TEST(ConfigFile, RejectsFewerRequestsThanFileSets) {
  ConfigError error;
  EXPECT_FALSE(parse("file_sets 50\nrequests 10\n", &error).has_value());
  EXPECT_EQ(error.line, 2u);
  EXPECT_FALSE(parse("requests 10\nfile_sets 50\n", &error).has_value());
  EXPECT_EQ(error.line, 2u);
  EXPECT_FALSE(parse("seed 3\nrequests 10\n", &error).has_value());
  EXPECT_EQ(error.line, 2u);  // against the default 50 file sets
  EXPECT_TRUE(parse("file_sets 10\nrequests 10\n").has_value());
  // A replayed trace file brings its own counts.
  EXPECT_TRUE(parse("requests 10\ntrace_file x.trace\n").has_value());
}

TEST(ConfigFile, RejectsScriptOnUnknownServer) {
  ConfigError error;
  EXPECT_FALSE(parse("speeds 1 2 3\nfail 10 7\n", &error).has_value());
  EXPECT_EQ(error.line, 2u);
  // `speeds` may come after the script.
  EXPECT_FALSE(parse("fail 10 3\nspeeds 1 2 3\n", &error).has_value());
  EXPECT_EQ(error.line, 1u);
  EXPECT_FALSE(
      parse("speeds 1 2 3\ndegrade 10 5 0.5\n", &error).has_value());
  EXPECT_EQ(error.line, 2u);
  // Servers added by earlier lines count.
  EXPECT_TRUE(parse("speeds 1 2 3\nadd 5 4\nfail 10 3\n").has_value());
  EXPECT_FALSE(parse("speeds 1 2 3\nfail 5 3\nadd 10 4\n", &error));
  EXPECT_EQ(error.line, 2u);
}

TEST(ConfigFile, RejectsFailOfDownServer) {
  ConfigError error;
  EXPECT_FALSE(parse("fail 10 1\nfail 20 1\n", &error).has_value());
  EXPECT_EQ(error.line, 2u);
  EXPECT_FALSE(parse("remove 10 1\nremove 20 1\n", &error).has_value());
  EXPECT_EQ(error.line, 2u);
  EXPECT_TRUE(parse("fail 10 1\nrecover 20 1\nfail 30 1\n").has_value());
  // Nor may the script take down the last server up.
  EXPECT_FALSE(parse("speeds 1 2\nfail 10 0\nremove 20 1\n", &error));
  EXPECT_EQ(error.line, 3u);
}

TEST(ConfigFile, RejectsRecoverOfUpServer) {
  ConfigError error;
  EXPECT_FALSE(parse("recover 10 1\n", &error).has_value());
  EXPECT_EQ(error.line, 1u);
  EXPECT_FALSE(
      parse("fail 10 1\nrecover 20 1\nrecover 30 1\n", &error).has_value());
  EXPECT_EQ(error.line, 3u);
  EXPECT_TRUE(parse("remove 10 1\nrecover 20 1\n").has_value());
}

TEST(ConfigFile, RejectsDegradeOfDownServer) {
  ConfigError error;
  EXPECT_FALSE(parse("fail 10 2\ndegrade 20 2 0.5\n", &error).has_value());
  EXPECT_EQ(error.line, 2u);
  EXPECT_TRUE(parse("degrade 10 2 0.5\nfail 20 2\nrestore 30 2\n")
                  .has_value());
}

TEST(ConfigFile, RejectsUnknownKey) {
  ConfigError error;
  EXPECT_FALSE(parse("bogus 1\n", &error).has_value());
  EXPECT_EQ(error.line, 1u);
  EXPECT_NE(error.message.find("bogus"), std::string::npos);
}

TEST(ConfigFile, RejectsBadValues) {
  EXPECT_FALSE(parse("utilization 1.5\n").has_value());
  EXPECT_FALSE(parse("utilization 0\n").has_value());
  EXPECT_FALSE(parse("speeds\n").has_value());
  EXPECT_FALSE(parse("speeds 1 -2\n").has_value());
  EXPECT_FALSE(parse("system nope\n").has_value());
  EXPECT_FALSE(parse("workload nope\n").has_value());
  EXPECT_FALSE(parse("file_sets 0\n").has_value());
  EXPECT_FALSE(parse("placement_choices 9\n").has_value());
  EXPECT_FALSE(parse("seed\n").has_value());
}

// `line`, after a valid first line, fails on line 2 naming `word`.
void expect_rejected(const std::string& line, const std::string& word) {
  ConfigError error;
  EXPECT_FALSE(parse("system anu\n" + line + "\n", &error)) << line;
  EXPECT_EQ(error.line, 2u) << line;
  EXPECT_NE(error.message.find("'" + word + "'"), std::string::npos)
      << line << ": " << error.message;
}

// Every value is read whole: a malformed, out-of-range or leftover word
// fails its line, and the message names that word.
TEST(ConfigFile, RejectsMalformedWords) {
  expect_rejected("requests 2000x", "2000x");
  expect_rejected("duration_min 5abc", "5abc");
  expect_rejected("file_sets -5", "-5");
  expect_rejected("seed -1", "-1");
  expect_rejected("speeds 1 3 x 9", "x");
  expect_rejected("utilization 0.5 0.9", "0.9");
  expect_rejected("jsq_speed_aware 7", "7");
  expect_rejected("fail 1 4 junk", "junk");
}

// The example in config_file.h's comment is a config that parses and sets
// every key of the parser's table, so an undocumented key fails here.
TEST(ConfigFile, DocumentedExampleCoversEveryKey) {
  const std::string path =
      std::string(ANU_SOURCE_DIR) + "/src/driver/config_file.h";
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open()) << "missing " << path;
  // The example is the header comment's indented lines: "//" and then at
  // least three spaces.
  std::string example;
  for (std::string line; std::getline(f, line) && line.starts_with("//");) {
    if (line.starts_with("//   ")) example += line.substr(2) + "\n";
  }
  ConfigError error;
  const auto spec = parse(example, &error);
  ASSERT_TRUE(spec.has_value())
      << "example line " << error.line << ": " << error.message;
  std::vector<std::string> keys;
  std::istringstream lines(example);
  for (std::string line; std::getline(lines, line);) {
    const auto words = split_words(line);
    if (!words.empty()) keys.emplace_back(words[0]);
  }
  for (const std::string_view key : sim_config_keys()) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end())
        << "config_file.h's example does not set `" << key << "`";
  }
}

TEST(ConfigFile, CacheModelKeys) {
  const auto spec = parse("cache_penalty_x 3.5\ncache_warmup_requests 7\n");
  ASSERT_TRUE(spec.has_value());
  EXPECT_TRUE(spec->experiment.cluster.cache.enabled);
  EXPECT_DOUBLE_EQ(spec->experiment.cluster.cache.cold_penalty_factor, 3.5);
  EXPECT_EQ(spec->experiment.cluster.cache.warmup_requests, 7u);
}

TEST(ConfigFile, CachePenaltyOneDisablesModel) {
  const auto spec = parse("cache_penalty_x 1\n");
  ASSERT_TRUE(spec.has_value());
  EXPECT_FALSE(spec->experiment.cluster.cache.enabled);
}

TEST(ConfigFile, RejectsSubUnityCachePenalty) {
  EXPECT_FALSE(parse("cache_penalty_x 0.5\n").has_value());
  EXPECT_FALSE(parse("cache_warmup_requests 0\n").has_value());
}

TEST(ConfigFile, DispatchStrategyKeys) {
  const auto spec = parse(
      "system jsqd\n"
      "jsq_d 4\n"
      "jsq_speed_aware 1\n"
      "jiq_policy fastest\n"
      "jiq_weighted_fallback 0\n"
      "red_d 3\n"
      "red_cancel start\n"
      "red_speed_aware 1\n"
      "strategy_seed 1234\n");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->system.kind, SystemKind::kJsqD);
  EXPECT_EQ(spec->system.jsq.d, 4u);
  EXPECT_TRUE(spec->system.jsq.speed_aware);
  EXPECT_EQ(spec->system.jiq.policy, balance::JiqConfig::TokenPolicy::kFastest);
  EXPECT_FALSE(spec->system.jiq.weighted_fallback);
  EXPECT_EQ(spec->system.red.d, 3u);
  EXPECT_EQ(spec->system.red.cancel,
            balance::RedundancyDConfig::CancelMode::kOnStart);
  EXPECT_TRUE(spec->system.red.speed_aware);
  // strategy_seed feeds all three dispatch strategies.
  EXPECT_EQ(spec->system.jsq.seed, 1234u);
  EXPECT_EQ(spec->system.jiq.seed, 1234u);
  EXPECT_EQ(spec->system.red.seed, 1234u);
}

TEST(ConfigFile, DispatchStrategyAliases) {
  EXPECT_EQ(parse("system jsq-d\n")->system.kind, SystemKind::kJsqD);
  EXPECT_EQ(parse("system jiq\n")->system.kind, SystemKind::kJoinIdleQueue);
  EXPECT_EQ(parse("system redundancy\n")->system.kind,
            SystemKind::kRedundancyD);
  EXPECT_EQ(parse("system red\n")->system.kind, SystemKind::kRedundancyD);
}

TEST(ConfigFile, RejectsBadDispatchValues) {
  ConfigError error;
  EXPECT_FALSE(parse("jsq_d 0\n", &error));
  EXPECT_NE(error.message.find("jsq_d"), std::string::npos);
  EXPECT_FALSE(parse("jsq_d 9\n", &error));
  EXPECT_FALSE(parse("red_d 99\n", &error));
  EXPECT_FALSE(parse("jiq_policy random\n", &error));
  EXPECT_NE(error.message.find("jiq_policy"), std::string::npos);
  EXPECT_FALSE(parse("red_cancel never\n", &error));
  EXPECT_NE(error.message.find("red_cancel"), std::string::npos);
}

TEST(ConfigFile, TraceFileImpliesTraceWorkload) {
  const auto spec = parse("trace_file /tmp/x.trace\n");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->workload, SimSpec::WorkloadKind::kTrace);
  EXPECT_EQ(spec->trace_file, "/tmp/x.trace");
}

TEST(ConfigFile, PlacementChoicesFlowsToAnuConfig) {
  const auto spec = parse("placement_choices 2\n");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->system.anu.placement_choices, 2u);
}

TEST(ConfigFile, BuildWorkloadSynthetic) {
  auto spec = parse("file_sets 5\nrequests 100\nduration_min 1\n");
  ASSERT_TRUE(spec.has_value());
  const auto workload = build_workload(*spec);
  ASSERT_TRUE(workload.has_value());
  EXPECT_EQ(workload->file_set_count(), 5u);
  EXPECT_EQ(workload->request_count(), 100u);
}

TEST(ConfigFile, BuildWorkloadSynthesizedTrace) {
  auto spec = parse("workload trace\nfile_sets 4\nrequests 200\n"
                    "duration_min 2\n");
  ASSERT_TRUE(spec.has_value());
  const auto workload = build_workload(*spec);
  ASSERT_TRUE(workload.has_value());
  EXPECT_EQ(workload->file_set_count(), 4u);
}

TEST(ConfigFile, BuildWorkloadMissingTraceFileFails) {
  auto spec = parse("trace_file /nonexistent/x.trace\n");
  ASSERT_TRUE(spec.has_value());
  ConfigError error;
  EXPECT_FALSE(build_workload(*spec, &error).has_value());
  EXPECT_NE(error.message.find("/nonexistent/x.trace"), std::string::npos);
}

TEST(ConfigFile, MissingFileReportsError) {
  ConfigError error;
  EXPECT_FALSE(parse_sim_config_file("/nonexistent/anu.conf", &error)
                   .has_value());
  EXPECT_EQ(error.line, 0u);
}

TEST(ConfigFile, EndToEndSmallRun) {
  auto spec = parse(
      "file_sets 8\nrequests 500\nduration_min 5\nsystem anu\n"
      "tuning_interval_s 30\nfail 2 4\nrecover 3 4\n");
  ASSERT_TRUE(spec.has_value());
  const auto workload = build_workload(*spec);
  ASSERT_TRUE(workload.has_value());
  auto balancer = make_balancer(spec->system,
                                spec->experiment.cluster.server_speeds.size());
  const auto result = run_experiment(spec->experiment, *workload, *balancer);
  EXPECT_GT(result.requests_completed, 400u);
}

}  // namespace
}  // namespace anu::driver
