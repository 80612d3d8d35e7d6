// Tests for the observability subsystem: the TraceSink ring buffer, the
// JSON document model, the JSONL / Chrome trace exporters, the telemetry
// manifest, and the schema documentation coverage contract.
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "driver/balancer_factory.h"
#include "driver/config_file.h"
#include "driver/experiment.h"
#include "driver/protocol_experiment.h"
#include "driver/telemetry.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/trace_sink.h"
#include "series_hash.h"

namespace anu {
namespace {

using obs::EventType;
using obs::Json;
using obs::TraceSink;

// ---------------------------------------------------------------- TraceSink

TEST(TraceSink, StartsEmpty) {
  TraceSink sink(16);
  EXPECT_EQ(sink.capacity(), 16u);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.emitted(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, RecordsInEmissionOrder) {
  TraceSink sink(16);
  for (std::uint32_t i = 0; i < 5; ++i) {
    sink.emit(static_cast<double>(i), EventType::kRequestIssue, i);
  }
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].a, i);
    EXPECT_DOUBLE_EQ(events[i].time, static_cast<double>(i));
  }
}

TEST(TraceSink, OverflowDropsOldestAndCounts) {
  TraceSink sink(8);
  for (std::uint32_t i = 0; i < 20; ++i) {
    sink.emit(static_cast<double>(i), EventType::kRequestComplete, i);
  }
  EXPECT_EQ(sink.size(), 8u);
  EXPECT_EQ(sink.emitted(), 20u);
  EXPECT_EQ(sink.dropped(), 12u);
  // The newest 8 events survive, still oldest-first.
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].a, 12 + i);
  }
}

TEST(TraceSink, ClearResetsEverything) {
  TraceSink sink(4);
  for (int i = 0; i < 10; ++i) sink.emit(1.0, EventType::kServerFail, 0);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.emitted(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_TRUE(sink.snapshot().empty());
}

TEST(TraceSink, EventTypeNamesAreDistinctAndStable) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < obs::kEventTypeCount; ++i) {
    const char* name = obs::event_type_name(static_cast<EventType>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_FALSE(std::string(name).empty());
    names.insert(name);
  }
  EXPECT_EQ(names.size(), obs::kEventTypeCount);
  EXPECT_EQ(obs::event_type_name(EventType::kRequestIssue),
            std::string("request_issue"));
  EXPECT_EQ(obs::event_type_name(EventType::kDelegateElected),
            std::string("delegate_elected"));
}

// --------------------------------------------------------------------- Json

TEST(Json, BuildsAndDumpsDeterministically) {
  Json o = Json::object();
  o.set("b", 2).set("a", 1).set("s", "x\"y");
  Json arr = Json::array();
  arr.push_back(true).push_back(Json()).push_back(0.5);
  o.set("arr", std::move(arr));
  // Insertion order is preserved (not sorted) so output is diffable.
  EXPECT_EQ(o.dump(), R"({"b":2,"a":1,"s":"x\"y","arr":[true,null,0.5]})");
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"n":-3.25,"i":42,"s":"hi\nthere","a":[1,2,3],"o":{"k":false}})";
  std::string error;
  const auto parsed = Json::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->dump(), text);
  EXPECT_DOUBLE_EQ(parsed->at("n")->as_number(), -3.25);
  EXPECT_EQ(parsed->at("o", "k")->as_bool(), false);
  EXPECT_EQ(parsed->at("a")->as_array().size(), 3u);
  EXPECT_EQ(parsed->at("missing"), nullptr);
}

TEST(Json, NumbersSurviveRoundTrip) {
  for (const double v : {0.1, 1e-9, 1.0 / 3.0, 123456789.123456789, 1e300}) {
    const std::string text = Json(v).dump();
    const auto parsed = Json::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_DOUBLE_EQ(parsed->as_number(), v) << text;
  }
  EXPECT_EQ(Json(7).dump(), "7");
  EXPECT_EQ(Json(std::uint64_t{1} << 40).dump(), "1099511627776");
}

TEST(Json, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(Json::parse("{", &error).has_value());
  EXPECT_FALSE(Json::parse("[1,]", &error).has_value());
  EXPECT_FALSE(Json::parse("{} trailing", &error).has_value());
  EXPECT_FALSE(Json::parse("'single'", &error).has_value());
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------- Exporters

TraceSink make_golden_sink() {
  TraceSink sink(64);
  sink.emit(0.0, EventType::kServerAdd, 0, 0, 0, 2.5);
  sink.emit(0.5, EventType::kRequestIssue, 3, 1, 0, 2.0);
  sink.emit(1.5, EventType::kRequestComplete, 3, 1, 0, 1.0);
  sink.emit(2.0, EventType::kFileSetMove, 3, 1, 0);
  sink.emit(2.0, EventType::kRegionRetune, 1, 0, 0, 0.25);
  return sink;
}

TEST(Export, JsonlGolden) {
  const TraceSink sink = make_golden_sink();
  std::ostringstream os;
  obs::write_jsonl(sink, os);
  EXPECT_EQ(os.str(),
            "{\"t\":0,\"type\":\"server_add\",\"server\":0,\"speed\":2.5}\n"
            "{\"t\":0.5,\"type\":\"request_issue\",\"file_set\":3,"
            "\"server\":1,\"demand\":2}\n"
            "{\"t\":1.5,\"type\":\"request_complete\",\"file_set\":3,"
            "\"server\":1,\"latency_s\":1}\n"
            "{\"t\":2,\"type\":\"file_set_move\",\"file_set\":3,"
            "\"from\":1,\"to\":0}\n"
            "{\"t\":2,\"type\":\"region_retune\",\"server\":1,"
            "\"share\":0.25}\n");
}

TEST(Export, ChromeTraceIsValidJsonWithExpectedPhases) {
  const TraceSink sink = make_golden_sink();
  std::ostringstream os;
  obs::write_chrome_trace(sink, os);
  std::string error;
  const auto doc = Json::parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const Json* events = doc->at("traceEvents");
  ASSERT_NE(events, nullptr);
  // Metadata names every track that appears, then one entry per event.
  std::size_t metadata = 0, durations = 0, counters = 0, instants = 0;
  for (const Json& e : events->as_array()) {
    const std::string& ph = e.at("ph")->as_string();
    if (ph == "M") ++metadata;
    if (ph == "X") ++durations;
    if (ph == "C") ++counters;
    if (ph == "i") ++instants;
  }
  EXPECT_GE(metadata, 2u);  // control plane + at least one server track
  EXPECT_EQ(durations, 1u);
  EXPECT_EQ(counters, 1u);
  EXPECT_EQ(instants, 3u);
}

TEST(Export, ChromeDurationSpansIssueToCompletion) {
  TraceSink sink(8);
  sink.emit(5.0, EventType::kRequestComplete, 7, 2, 0, 1.5);
  std::ostringstream os;
  obs::write_chrome_trace(sink, os);
  const auto doc = Json::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  for (const Json& e : doc->at("traceEvents")->as_array()) {
    if (e.at("ph")->as_string() != "X") continue;
    // ts is microseconds; the span starts latency before completion.
    EXPECT_DOUBLE_EQ(e.at("ts")->as_number(), (5.0 - 1.5) * 1e6);
    EXPECT_DOUBLE_EQ(e.at("dur")->as_number(), 1.5 * 1e6);
    EXPECT_EQ(e.at("tid")->as_number(), 3);  // server 2 -> track 3
    return;
  }
  FAIL() << "no duration event found";
}

TEST(Export, FileExtensionSelectsFormat) {
  const TraceSink sink = make_golden_sink();
  const std::string dir = ::testing::TempDir();
  const std::string jsonl_path = dir + "/obs_test_trace.jsonl";
  const std::string chrome_path = dir + "/obs_test_trace.json";
  ASSERT_TRUE(obs::write_trace_file(sink, jsonl_path));
  ASSERT_TRUE(obs::write_trace_file(sink, chrome_path));
  std::ifstream jsonl(jsonl_path);
  std::string first_line;
  ASSERT_TRUE(std::getline(jsonl, first_line));
  EXPECT_NE(first_line.find("\"type\":\"server_add\""), std::string::npos);
  std::ifstream chrome(chrome_path);
  std::stringstream buf;
  buf << chrome.rdbuf();
  const auto doc = Json::parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_NE(doc->at("traceEvents"), nullptr);
}

// ------------------------------------------------- experiment-level tracing

driver::SimSpec tiny_spec() {
  driver::SimSpec spec;
  spec.synthetic.seed = 11;
  spec.synthetic.file_set_count = 12;
  spec.synthetic.request_count = 600;
  spec.synthetic.duration = 600.0;
  spec.synthetic.cluster_capacity = 15.0;
  spec.experiment.cluster.server_speeds = {1.0, 2.0, 3.0, 4.0, 5.0};
  spec.experiment.tuning_interval = 60.0;
  spec.experiment.failures.add(
      {120.0, cluster::MembershipAction::kFail, ServerId(4), 0.0});
  spec.experiment.failures.add(
      {240.0, cluster::MembershipAction::kRecover, ServerId(4), 0.0});
  return spec;
}

struct TracedRun {
  driver::SimSpec spec;
  driver::ExperimentResult result;
  TraceSink sink;
};

TracedRun traced_run(driver::SimSpec spec) {
  TracedRun run{std::move(spec), {}, TraceSink(1 << 16)};
  run.spec.experiment.trace = &run.sink;
  const auto workload = driver::build_workload(run.spec);
  auto balancer = driver::make_balancer(
      run.spec.system, run.spec.experiment.cluster.server_speeds.size());
  run.result =
      driver::run_experiment(run.spec.experiment, *workload, *balancer);
  return run;
}

TracedRun traced_tiny_run() { return traced_run(tiny_spec()); }

TEST(ExperimentTrace, EmitsExpectedEventTypes) {
  const TracedRun run = traced_tiny_run();
  std::set<EventType> seen;
  run.sink.for_each([&](const obs::TraceEvent& e) { seen.insert(e.type); });
  EXPECT_TRUE(seen.count(EventType::kServerAdd));  // initial roster
  EXPECT_TRUE(seen.count(EventType::kRequestIssue));
  EXPECT_TRUE(seen.count(EventType::kRequestComplete));
  EXPECT_TRUE(seen.count(EventType::kTuningRound));
  EXPECT_TRUE(seen.count(EventType::kRegionRetune));
  EXPECT_TRUE(seen.count(EventType::kServerFail));
  EXPECT_TRUE(seen.count(EventType::kServerRecover));
}

TEST(ExperimentTrace, TimesAreNonDecreasing) {
  const TracedRun run = traced_tiny_run();
  double last = 0.0;
  run.sink.for_each([&](const obs::TraceEvent& e) {
    EXPECT_GE(e.time, last);
    last = e.time;
  });
}

TEST(ExperimentTrace, CompletionEventsRecomputeSteadyStateMean) {
  // The acceptance bar for the trace: the printed steady-state mean must be
  // derivable from request_complete events alone.
  const TracedRun run = traced_tiny_run();
  RunningStats steady;
  run.sink.for_each([&](const obs::TraceEvent& e) {
    if (e.type != EventType::kRequestComplete) return;
    if (e.time >= run.result.horizon * 0.5) steady.add(e.x);
  });
  EXPECT_EQ(steady.count(), run.result.steady_state.count());
  EXPECT_NEAR(steady.mean(), run.result.steady_state.mean(), 1e-12);
}

TEST(ExperimentTrace, TuningRoundsRecomputePercentWorkloadMoved) {
  const TracedRun run = traced_tiny_run();
  double last_cumulative_pct = 0.0;
  std::uint64_t rounds = 0;
  run.sink.for_each([&](const obs::TraceEvent& e) {
    if (e.type != EventType::kTuningRound) return;
    ++rounds;
    last_cumulative_pct = e.y;
  });
  EXPECT_EQ(rounds, run.result.tuning_rounds);
  EXPECT_NEAR(last_cumulative_pct, run.result.percent_workload_moved, 1e-9);
}

// The literals below were captured by running these test bodies at commit
// 03f4493a7cf6, where each driver kept its own arrival cursor and emitted
// request_issue and request_complete itself: every retained event must
// stay the same, field for field, whichever code emits it.
TEST(ExperimentTrace, PinnedContentThroughFailRecover) {
  const TracedRun run = traced_tiny_run();
  EXPECT_EQ(run.sink.emitted(), 1252u);
  EXPECT_EQ(run.sink.dropped(), 0u);
  EXPECT_EQ(trace_hash(run.sink), 0x9789d22214a75a20ULL);
}

TEST(ExperimentTrace, PinnedContentOfReplicaRaces) {
  driver::SimSpec spec = tiny_spec();
  spec.system.kind = driver::SystemKind::kRedundancyD;
  spec.system.red.d = 2;
  const TracedRun run = traced_run(std::move(spec));
  EXPECT_EQ(run.sink.emitted(), 1801u);
  EXPECT_EQ(run.sink.dropped(), 0u);
  EXPECT_EQ(trace_hash(run.sink), 0x07794153875cb0cdULL);
}

/// Three servers under the message protocol, no failures, 400 s.
void traced_protocol_run(TraceSink& sink) {
  driver::ProtocolExperimentConfig config;
  config.cluster.server_speeds = {1.0, 2.0, 3.0};
  config.horizon = 400.0;
  config.protocol.tuning_interval = 60.0;
  config.trace = &sink;
  driver::SimSpec spec = tiny_spec();
  spec.synthetic.cluster_capacity = 6.0;
  spec.experiment.failures = {};
  const auto workload = driver::build_workload(spec);
  (void)driver::run_protocol_experiment(config, *workload);
}

TEST(ProtocolTrace, EmitsMessageAndDelegateEvents) {
  TraceSink sink(1 << 16);
  traced_protocol_run(sink);
  std::set<EventType> seen;
  sink.for_each([&](const obs::TraceEvent& e) { seen.insert(e.type); });
  EXPECT_TRUE(seen.count(EventType::kMessageSend));
  EXPECT_TRUE(seen.count(EventType::kMessageRecv));
  EXPECT_TRUE(seen.count(EventType::kDelegateRound));
  EXPECT_TRUE(seen.count(EventType::kMapApply));
}

// Captured at commit 03f4493a7cf6, like the ExperimentTrace pins above.
TEST(ProtocolTrace, PinnedContent) {
  TraceSink sink(1 << 16);
  traced_protocol_run(sink);
  EXPECT_EQ(sink.emitted(), 905u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(trace_hash(sink), 0x4f278d13a69d50d1ULL);
}

// ----------------------------------------------------------------- manifest

TEST(Manifest, RoundTripPreservesSummaryNumbers) {
  const TracedRun run = traced_tiny_run();
  const Json manifest =
      driver::manifest_json(run.spec, run.result, &run.sink);
  std::ostringstream os;
  manifest.write_pretty(os);
  std::string error;
  const auto parsed = Json::parse(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  EXPECT_EQ(parsed->at("schema_version")->as_number(),
            driver::kManifestSchemaVersion);
  EXPECT_EQ(parsed->at("generator", "git")->as_string(),
            obs::git_describe());
  EXPECT_DOUBLE_EQ(parsed->at("result", "steady_state", "mean_s")->as_number(),
                   run.result.steady_state.mean());
  EXPECT_DOUBLE_EQ(
      parsed->at("result", "movement", "percent_workload_moved")->as_number(),
      run.result.percent_workload_moved);
  EXPECT_EQ(parsed->at("result", "requests_completed")->as_number(),
            static_cast<double>(run.result.requests_completed));
  EXPECT_EQ(parsed->at("trace", "emitted")->as_number(),
            static_cast<double>(run.sink.emitted()));
  EXPECT_EQ(parsed->at("config", "workload", "seed")->as_number(), 11);
  EXPECT_EQ(parsed->at("config", "system", "label")->as_string(), "anu");
  // Membership script round-trips with the config-format action names.
  const Json* membership = parsed->at("config", "membership");
  ASSERT_NE(membership, nullptr);
  ASSERT_EQ(membership->as_array().size(), 2u);
  EXPECT_EQ(membership->as_array()[0].at("action")->as_string(), "fail");
  EXPECT_EQ(membership->as_array()[1].at("action")->as_string(), "recover");
}

TEST(Manifest, HistogramBucketsSumToAggregateCount) {
  const TracedRun run = traced_tiny_run();
  const Json manifest = driver::manifest_json(run.spec, run.result);
  const Json* histogram = manifest.at("result", "latency_histogram");
  ASSERT_NE(histogram, nullptr);
  double sum = 0.0;
  double last_lower = 0.0;
  for (const Json& bucket : histogram->at("buckets")->as_array()) {
    sum += bucket.at("count")->as_number();
    const double lower = bucket.at("lower_s")->as_number();
    EXPECT_GT(lower, last_lower);  // buckets ascend in value space
    last_lower = lower;
  }
  EXPECT_EQ(sum, histogram->at("count")->as_number());
  EXPECT_EQ(sum, static_cast<double>(run.result.aggregate.count()));
}

TEST(Manifest, MovementRoundsRecomputeCumulativePercent) {
  const TracedRun run = traced_tiny_run();
  const Json manifest = driver::manifest_json(run.spec, run.result);
  const Json* rounds = manifest.at("result", "movement", "rounds");
  ASSERT_NE(rounds, nullptr);
  ASSERT_FALSE(rounds->as_array().empty());
  const Json& last = rounds->as_array().back();
  EXPECT_NEAR(last.at("cumulative_pct")->as_number(),
              run.result.percent_workload_moved, 1e-9);
}

TEST(Manifest, WriteFileProducesParsableJson) {
  const TracedRun run = traced_tiny_run();
  const std::string path = ::testing::TempDir() + "/obs_test_manifest.json";
  ASSERT_TRUE(
      driver::write_manifest_file(path, run.spec, run.result, &run.sink));
  std::ifstream f(path);
  std::stringstream buf;
  buf << f.rdbuf();
  std::string error;
  EXPECT_TRUE(Json::parse(buf.str(), &error).has_value()) << error;
}

// ----------------------------------------------------------- documentation

// Every event type must be documented in docs/observability.md. Adding an
// event type without a schema table entry fails here.
TEST(ObsDoc, EveryEventTypeDocumented) {
  const std::string path =
      std::string(ANU_SOURCE_DIR) + "/docs/observability.md";
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open()) << "missing " << path;
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string doc = buf.str();
  for (std::size_t i = 0; i < obs::kEventTypeCount; ++i) {
    const std::string name =
        obs::event_type_name(static_cast<EventType>(i));
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "docs/observability.md does not document event type `" << name
        << "`";
  }
}

}  // namespace
}  // namespace anu
