// Streaming statistics used by the metrics layer and the figure harnesses.
#pragma once

#include <algorithm>
#include <bit>
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

/// Logarithmically-bucketed histogram for long-tailed positive values
/// (latencies spanning milliseconds to hours). Relative quantile error is
/// bounded by the per-decade resolution; O(1) add, O(buckets) quantile.
///
/// The bucket rule: x lands in bucket
///   floor((log10(x) - log10(min_value)) * buckets_per_decade),
/// clamped to [0, bucket_count() - 1]. NaN, zero and negatives land in
/// bucket 0, +inf in the last. add() applies the rule without calling
/// log10: the constructor finds each bucket's lowest value (its edge) once,
/// and a lookup guesses the bucket from x's exponent and top mantissa bits
/// and corrects the guess with one comparison against an edge.
class LogHistogram {
 public:
  /// Buckets span [min_value, max_value] with `buckets_per_decade`
  /// subdivisions per power of ten. Values outside clamp to the ends.
  LogHistogram(double min_value, double max_value,
               std::size_t buckets_per_decade);
  /// LogHistogram(1e-4, 1e5, 20), the latency histogram every experiment
  /// result carries. Its edges are found once per process and copied.
  LogHistogram();

  void add(double x) {
    ++counts_[bucket_of(x)];
    ++total_;
  }
  void merge(const LogHistogram& other);
  [[nodiscard]] std::size_t count() const { return total_; }
  /// Quantile estimate (geometric midpoint of the selected bucket).
  [[nodiscard]] double quantile(double q) const;

  /// The bucket the rule assigns `x`: the one add(x) counts it in.
  [[nodiscard]] std::size_t bucket_of(double x) const {
    if (!(x > 0.0)) return 0;
    const std::int64_t cell =
        std::clamp(log_bits(x) >> shift_, first_cell_, last_cell_);
    const std::size_t guess =
        guess_[static_cast<std::size_t>(cell - first_cell_)];
    return guess + static_cast<std::size_t>(x >= edges_[guess + 1]);
  }

  // Bucket introspection (serialized into the telemetry manifest; see
  // docs/observability.md).
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t bucket(std::size_t i) const { return counts_[i]; }
  /// Lower edge of bucket i in value space, as pow(10, log10(min_value) +
  /// i / buckets_per_decade); bucket i covers [bucket_lower(i),
  /// bucket_lower(i + 1)) to within the few ulps by which the rule's own
  /// rounding differs, with the first and last buckets absorbing
  /// underflow/overflow.
  [[nodiscard]] double bucket_lower(std::size_t i) const;

 private:
  /// A non-negative double's bits as an integer that grows by 2^52 per
  /// doubling: the bits themselves for normal values, and for subnormals
  /// the bits of x * 2^52 less 52 binades. A run of 2^s consecutive
  /// integers therefore spans a relative width of at most 2^(s-52) at any
  /// magnitude.
  [[nodiscard]] static std::int64_t log_bits(double x) {
    if (x >= std::numeric_limits<double>::min()) [[likely]] {
      return std::bit_cast<std::int64_t>(x);
    }
    return std::bit_cast<std::int64_t>(x * 0x1p52) - (std::int64_t{52} << 52);
  }

  double log_min_;
  double per_decade_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  /// edges_[i], i >= 1: the lowest value the rule puts in bucket i or
  /// above. edges_[0] is unused.
  std::vector<double> edges_;
  /// Cell c is the values whose log_bits() >> shift_ is c; a cell never
  /// holds more than one edge. guess_[c - first_cell_] is the bucket of
  /// the cell's lowest value, capped at bucket_count() - 2 so the one
  /// comparison stays inside edges_. Cells outside [first_cell_,
  /// last_cell_] clamp to the end cells: first_cell_ holds the value just
  /// below the first edge, and last_cell_ holds the last edge.
  std::vector<std::uint32_t> guess_;
  int shift_ = 0;
  std::int64_t first_cell_ = 0;
  std::int64_t last_cell_ = 0;
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
