// Tests for streaming statistics, the log histogram and time series.
#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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

// LogHistogram's bucket_of() must assign exactly the bucket its documented
// log10 rule does, at every double, for any parameter set. The rule is
// written out here on its own, so the class's edge table is checked
// against the definition rather than against itself.
struct LogParams {
  double min_value;
  double max_value;
  std::size_t per_decade;
};

std::size_t log10_rule(const LogParams& p, double x) {
  const double log_min = std::log10(p.min_value);
  const double per_decade = static_cast<double>(p.per_decade);
  const auto last = static_cast<std::size_t>(
      std::ceil((std::log10(p.max_value) - log_min) * per_decade));
  if (!(x > 0.0)) return 0;
  const double pos = (std::log10(x) - log_min) * per_decade;
  if (pos <= 0.0) return 0;
  if (pos >= static_cast<double>(last)) return last;
  return static_cast<std::size_t>(pos);
}

void expect_rule_at_every_edge_and_sample(const LogParams& p,
                                          std::size_t random_samples) {
  const LogHistogram h(p.min_value, p.max_value, p.per_decade);
  const std::size_t last = h.bucket_count() - 1;
  ASSERT_EQ(log10_rule(p, std::numeric_limits<double>::infinity()), last);
  std::size_t mismatches = 0;
  const auto check = [&](double x) {
    if (h.bucket_of(x) != log10_rule(p, x) && ++mismatches <= 5) {
      ADD_FAILURE() << "x=" << x << " (bits " << std::hex
                    << std::bit_cast<std::uint64_t>(x) << std::dec
                    << ") bucket_of " << h.bucket_of(x) << " rule "
                    << log10_rule(p, x);
    }
  };
  // Every edge, found from the rule alone, and 3 ulps either side.
  for (std::size_t i = 1; i <= last; ++i) {
    double e = h.bucket_lower(i);
    while (e > 0.0 && log10_rule(p, e) >= i) e = std::nextafter(e, 0.0);
    while (log10_rule(p, e) < i) {
      e = std::nextafter(e, std::numeric_limits<double>::infinity());
    }
    for (int k = 0; k < 3; ++k) e = std::nextafter(e, 0.0);
    for (int k = 0; k < 7; ++k) {
      check(e);
      e = std::nextafter(e, std::numeric_limits<double>::infinity());
    }
  }
  // Random magnitudes, two decades beyond each end, and random bit
  // patterns over every positive double (subnormals, +inf and NaNs too).
  Xoshiro256 rng(0x1095);
  const double lo = std::log10(p.min_value) - 2.0;
  const double hi = std::log10(p.max_value) + 2.0;
  for (std::size_t n = 0; n < random_samples; ++n) {
    check(std::pow(10.0, lo + (hi - lo) * rng.next_double()));
    check(std::bit_cast<double>(rng.next() >> 1));
  }
  // The values the rule sends to the ends.
  for (const double x :
       {0.0, -0.0, -1.0, -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::nextafter(std::numeric_limits<double>::min(), 0.0),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(), p.min_value, p.max_value}) {
    check(x);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(h.bucket_of(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(h.bucket_of(-1.0), 0u);
  EXPECT_EQ(h.bucket_of(std::numeric_limits<double>::infinity()), last);
}

TEST(LogHistogram, BucketOfMatchesTheLog10RuleForTheDefaults) {
  expect_rule_at_every_edge_and_sample({1e-4, 1e5, 20}, 1'500'000);
  // The default constructor copies a histogram built with these values.
  const LogHistogram defaults;
  const LogHistogram built(1e-4, 1e5, 20);
  ASSERT_EQ(defaults.bucket_count(), built.bucket_count());
  for (std::size_t i = 0; i < built.bucket_count(); ++i) {
    const double x = built.bucket_lower(i);
    EXPECT_EQ(defaults.bucket_of(x), built.bucket_of(x)) << x;
  }
}

TEST(LogHistogram, BucketOfMatchesTheLog10RuleForTheTestParameters) {
  expect_rule_at_every_edge_and_sample({1e-3, 1e4, 50}, 1'000'000);
  expect_rule_at_every_edge_and_sample({0.1, 10.0, 10}, 1'000'000);
}

TEST(LogHistogram, BucketOfMatchesTheLog10RuleAtTheEndsOfTheDoubles) {
  // Edges among the subnormals, an edge past the largest double (only
  // +inf reaches the last bucket), one bucket per decade, a first edge
  // exactly at 2.0, where a lookup cell starts, and buckets a few hundred
  // ulps wide.
  expect_rule_at_every_edge_and_sample({1e-318, 1e-300, 7}, 100'000);
  expect_rule_at_every_edge_and_sample({1e300, 1.7e308, 3}, 100'000);
  expect_rule_at_every_edge_and_sample({1e-9, 1e9, 1}, 100'000);
  expect_rule_at_every_edge_and_sample({0.2, 100.0, 1}, 100'000);
  expect_rule_at_every_edge_and_sample({1.0, 1.0 + 1e-12, 10'000'000'000'000},
                                       100'000);
}

TEST(LogHistogram, NonFiniteAndNonPositiveValuesLandAtTheEnds) {
  LogHistogram h;
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(-3.0);
  h.add(0.0);
  h.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_EQ(h.bucket(h.bucket_count() - 1), 1u);
}

}  // namespace
}  // namespace anu
