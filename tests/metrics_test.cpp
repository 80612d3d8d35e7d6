// Tests for latency and movement trackers.
#include <gtest/gtest.h>

#include "metrics/latency_tracker.h"
#include "metrics/movement_tracker.h"

namespace anu::metrics {
namespace {

cluster::Completion completion(std::uint32_t server, double arrival,
                               double done) {
  return cluster::Completion{ServerId(server), FileSetId(0), arrival, done};
}

TEST(LatencyTracker, AggregatesAcrossServers) {
  LatencyTracker tracker(2, 300.0, 3600.0);
  tracker.observe(completion(0, 0.0, 1.0));  // latency 1
  tracker.observe(completion(1, 0.0, 3.0));  // latency 3
  EXPECT_EQ(tracker.total_served(), 2u);
  EXPECT_DOUBLE_EQ(tracker.aggregate().mean(), 2.0);
  EXPECT_DOUBLE_EQ(tracker.server_stats(ServerId(0)).mean(), 1.0);
  EXPECT_DOUBLE_EQ(tracker.server_stats(ServerId(1)).mean(), 3.0);
  EXPECT_EQ(tracker.served(ServerId(0)), 1u);
}

TEST(LatencyTracker, SeriesRecordsCompletionTimes) {
  // Two-second windows over [0, 4): the completion time picks the window.
  LatencyTracker tracker(1, 2.0, 4.0);
  tracker.observe(completion(0, 0.0, 1.0));
  tracker.observe(completion(0, 0.5, 3.5));
  const auto series = tracker.server_series(ServerId(0)).windowed_mean();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[1].time, 4.0);
  EXPECT_DOUBLE_EQ(series[1].value, 3.0);
}

TEST(LatencyTracker, AddServerExtends) {
  LatencyTracker tracker(1, 300.0, 3600.0);
  tracker.add_server();
  tracker.observe(completion(1, 0.0, 2.0));
  EXPECT_EQ(tracker.served(ServerId(1)), 1u);
}

balance::RebalanceResult moves_of(std::initializer_list<std::uint32_t> sets) {
  balance::RebalanceResult result;
  for (auto fs : sets) {
    result.moves.push_back(
        {FileSetId(fs), ServerId(0), ServerId(1)});
  }
  return result;
}

TEST(MovementTracker, CountsAndWeights) {
  MovementTracker tracker({1.0, 2.0, 3.0, 4.0});  // total weight 10
  tracker.record(10.0, moves_of({0, 2}));          // weight 4
  ASSERT_EQ(tracker.rounds().size(), 1u);
  EXPECT_EQ(tracker.rounds()[0].moved, 2u);
  EXPECT_DOUBLE_EQ(tracker.rounds()[0].moved_weight, 4.0);
  EXPECT_DOUBLE_EQ(tracker.percent_workload_moved(), 40.0);
}

TEST(MovementTracker, CumulativeAcrossRounds) {
  MovementTracker tracker({1.0, 1.0});
  tracker.record(1.0, moves_of({0}));
  tracker.record(2.0, moves_of({1}));
  tracker.record(3.0, {});  // quiet round
  EXPECT_EQ(tracker.total_moved(), 2u);
  EXPECT_DOUBLE_EQ(tracker.percent_workload_moved(), 100.0);
  EXPECT_EQ(tracker.rounds()[2].moved, 0u);
  EXPECT_EQ(tracker.rounds()[2].cumulative, 2u);
}

TEST(MovementTracker, RepeatMovesCountTwice) {
  MovementTracker tracker({5.0, 5.0});
  tracker.record(1.0, moves_of({0}));
  tracker.record(2.0, moves_of({0}));
  EXPECT_DOUBLE_EQ(tracker.percent_workload_moved(), 100.0);
}

TEST(MovementTracker, EmptyWeightsSafe) {
  MovementTracker tracker({});
  tracker.record(0.0, {});
  EXPECT_DOUBLE_EQ(tracker.percent_workload_moved(), 0.0);
}

}  // namespace
}  // namespace anu::metrics
