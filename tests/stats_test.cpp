// Tests for streaming statistics, histograms and time series.
#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace anu {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats s;
  for (double x : xs) s.add(x);
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  EXPECT_NEAR(s.sum(), 31.0, 1e-12);
}

TEST(RunningStats, MergeEqualsSingleStream) {
  RunningStats a, b, whole;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(5.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStats, StableOnShiftedData) {
  // Welford should not lose precision on large-offset data.
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2));
  EXPECT_NEAR(s.variance(), 0.25, 1e-6);
}

TEST(Histogram, CountsAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10) + 0.5);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
  EXPECT_NEAR(h.quantile(1.0), 10.0, 1.0);
}

TEST(Histogram, OverflowBucket) {
  Histogram h(0.0, 1.0, 4);
  h.add(100.0);
  h.add(-5.0);  // clamps to first bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(h.bucket_count() - 1), 1u);
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(TimeSeries, WindowedMeanBasic) {
  TimeSeries ts(1.0, 3.0);
  ts.add(0.5, 2.0);
  ts.add(0.9, 4.0);
  ts.add(1.5, 10.0);
  const auto windows = ts.windowed_mean();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_DOUBLE_EQ(windows[0].value, 3.0);   // mean(2, 4)
  EXPECT_DOUBLE_EQ(windows[1].value, 10.0);  // mean(10)
  EXPECT_DOUBLE_EQ(windows[2].value, 10.0);  // empty carries previous
}

TEST(TimeSeries, EmptyWindowsBeforeFirstSampleAreZero) {
  TimeSeries ts(1.0, 4.0);
  ts.add(2.5, 7.0);
  const auto windows = ts.windowed_mean();
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_DOUBLE_EQ(windows[0].value, 0.0);
  EXPECT_DOUBLE_EQ(windows[1].value, 0.0);
  EXPECT_DOUBLE_EQ(windows[2].value, 7.0);
  EXPECT_DOUBLE_EQ(windows[3].value, 7.0);
}

TEST(TimeSeries, WindowTimesAreWindowEnds) {
  const TimeSeries ts(2.0, 6.0);
  const auto windows = ts.windowed_mean();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_DOUBLE_EQ(windows[0].time, 2.0);
  EXPECT_DOUBLE_EQ(windows[2].time, 6.0);
}

/// The reduction TimeSeries streams: every sample kept, then the windows
/// scanned in order, each taking the samples before its end.
std::vector<TimeSeries::Point> per_point_windowed_mean(
    const std::vector<TimeSeries::Point>& points, double window,
    double horizon) {
  std::vector<TimeSeries::Point> out;
  const auto windows = static_cast<std::size_t>(std::ceil(horizon / window));
  std::size_t i = 0;
  double carry = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    const double end = window * static_cast<double>(w + 1);
    double sum = 0.0;
    std::size_t n = 0;
    while (i < points.size() && points[i].time < end) {
      sum += points[i].value;
      ++n;
      ++i;
    }
    const double mean = n ? sum / static_cast<double>(n) : carry;
    carry = mean;
    out.push_back({end, mean});
  }
  return out;
}

/// Feeds `points` (sorted here by time) to a TimeSeries and requires every
/// window's time and mean to equal the per-point scan's, bit for bit.
void expect_streaming_matches_scan(std::vector<TimeSeries::Point> points,
                                   double window, double horizon) {
  std::stable_sort(points.begin(), points.end(),
                   [](const TimeSeries::Point& a, const TimeSeries::Point& b) {
                     return a.time < b.time;
                   });
  TimeSeries ts(window, horizon);
  for (const auto& p : points) ts.add(p.time, p.value);
  const auto got = ts.windowed_mean();
  const auto want = per_point_windowed_mean(points, window, horizon);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(got[w].time, want[w].time) << "window " << w;
    EXPECT_EQ(got[w].value, want[w].value) << "window " << w;
  }
}

TEST(TimeSeries, StreamingMatchesPerPointScanOnRandomSamples) {
  Xoshiro256 rng(17);
  for (const double window : {0.1, 0.3, 1.0, 120.0, 300.0}) {
    const double horizon = 37.0 * window + window / 3.0;
    std::vector<TimeSeries::Point> points;
    for (int i = 0; i < 5000; ++i) {
      // Spills a little past the horizon: those samples must be dropped.
      points.push_back({1.05 * horizon * rng.next_double(),
                        100.0 * rng.next_double()});
    }
    expect_streaming_matches_scan(points, window, horizon);
  }
}

TEST(TimeSeries, StreamingMatchesPerPointScanAtWindowBoundaries) {
  const double window = 0.1;
  const double horizon = 5.0;
  std::vector<TimeSeries::Point> points;
  double value = 1.0;
  for (int w = 0; w <= 52; ++w) {
    const double end = window * static_cast<double>(w);
    // Exact window ends and their neighbouring doubles.
    for (const double t : {std::nextafter(end, 0.0), end,
                           std::nextafter(end, 10.0)}) {
      points.push_back({t, value});
      value += 1.0;
    }
  }
  // Decimal times near window ends. floor(t / 0.1) puts 1.7, 3.4 and 3.9
  // one window late and 4.3 one window early.
  for (const double t : {0.3, 0.7, 1.7, 3.4, 3.9, 4.3, horizon, horizon,
                         5.0000001, 9.0}) {
    points.push_back({t, value});
    value += 1.0;
  }
  expect_streaming_matches_scan(points, window, horizon);
  // The same samples under windows that do not divide the horizon.
  expect_streaming_matches_scan(points, 0.3, horizon);
  expect_streaming_matches_scan(points, 0.7, horizon);
}

TEST(LogHistogram, EmptyQuantileIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(LogHistogram, QuantilesWithinBucketResolution) {
  LogHistogram h(1e-3, 1e4, 50);
  // 1..1000 uniformly: p50 ~ 500, p99 ~ 990; log buckets give ~2.3%/bucket
  // relative resolution at 50/decade.
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.quantile(0.5), 500.0, 500.0 * 0.06);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * 0.06);
  EXPECT_NEAR(h.quantile(0.001), 1.0, 0.2);
}

TEST(LogHistogram, HandlesWideDynamicRange) {
  LogHistogram h;
  h.add(1e-3);
  h.add(1.0);
  h.add(1e4);
  EXPECT_NEAR(h.quantile(0.5), 1.0, 0.15);
  EXPECT_GT(h.quantile(0.99), 1e3);
  EXPECT_LT(h.quantile(0.01), 1e-2);
}

TEST(LogHistogram, ClampsOutOfRangeValues) {
  LogHistogram h(0.1, 10.0, 10);
  h.add(1e-9);   // clamps to first bucket
  h.add(1e9);    // clamps to last bucket
  h.add(0.0);    // non-positive: first bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_GT(h.quantile(0.9), 1.0);
  EXPECT_LT(h.quantile(0.1), 0.2);
}

TEST(LogHistogram, MergeEqualsCombinedStream) {
  LogHistogram a, b, whole;
  for (int i = 1; i <= 100; ++i) {
    const double x = 0.01 * i * i;
    (i % 2 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), whole.quantile(q));
  }
}

}  // namespace
}  // namespace anu
