// Streaming statistics used by the metrics layer and the figure harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace anu {

/// Welford's online mean/variance. Numerically stable; O(1) memory.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance (n in the denominator) — what the paper's stddev
  /// error bars use over full request populations.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bucket linear histogram with overflow bucket; supports quantile
/// estimation good enough for latency reporting.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  [[nodiscard]] std::size_t count() const { return total_; }
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t bucket(std::size_t i) const { return counts_[i]; }
  /// Linear-interpolated quantile, q in [0, 1].
  [[nodiscard]] double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;  // last bucket holds >= hi overflow
  std::size_t total_ = 0;
};

/// Logarithmically-bucketed histogram for long-tailed positive values
/// (latencies spanning milliseconds to hours). Relative quantile error is
/// bounded by the per-decade resolution; O(1) add, O(buckets) quantile.
class LogHistogram {
 public:
  /// Buckets span [min_value, max_value] with `buckets_per_decade`
  /// subdivisions per power of ten. Values outside clamp to the ends.
  LogHistogram(double min_value = 1e-4, double max_value = 1e5,
               std::size_t buckets_per_decade = 20);

  void add(double x);
  void merge(const LogHistogram& other);
  [[nodiscard]] std::size_t count() const { return total_; }
  /// Quantile estimate (geometric midpoint of the selected bucket).
  [[nodiscard]] double quantile(double q) const;

  // Bucket introspection (serialized into the telemetry manifest; see
  // docs/observability.md).
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t bucket(std::size_t i) const { return counts_[i]; }
  /// Lower edge of bucket i in value space; bucket i covers
  /// [bucket_lower(i), bucket_lower(i + 1)), with the first and last
  /// buckets absorbing underflow/overflow.
  [[nodiscard]] double bucket_lower(std::size_t i) const;

 private:
  [[nodiscard]] std::size_t bucket_of(double x) const;

  double log_min_;
  double per_decade_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Windowed-mean latency series — the building block for the
/// latency-over-time curves in Figs. 4 and 5. Samples stream into
/// consecutive windows of `window` time units covering [0, horizon); only
/// one {sum, count} per window is kept, so memory is O(windows), not
/// O(samples).
class TimeSeries {
 public:
  struct Point {
    double time;
    double value;
  };

  TimeSeries(double window, double horizon);

  /// Adds a sample to the first window w with time < window * (w + 1).
  /// Samples at or past the last window's end are dropped. Times must be
  /// non-decreasing.
  void add(double time, double value);

  /// One point per window: its end time and the mean of its samples.
  /// Windows with no samples repeat NaN-free: they carry the previous
  /// window's mean (or 0 before any sample), matching how an idle server's
  /// latency curve is drawn flat in the paper's figures.
  [[nodiscard]] std::vector<Point> windowed_mean() const;

 private:
  struct Window {
    double sum = 0.0;
    std::size_t count = 0;
  };

  double window_;
  std::vector<Window> windows_;
  std::size_t current_ = 0;  // window of the latest sample
  double last_time_ = -std::numeric_limits<double>::infinity();
};

}  // namespace anu
