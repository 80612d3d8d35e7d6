#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/assert.h"

namespace anu {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

namespace {

/// The bucket rule of LogHistogram, with log10: the constructor places the
/// edges by it, and bucket_of() must agree with it at every double.
std::size_t log10_bucket(double x, double log_min, double per_decade,
                         std::size_t last) {
  if (!(x > 0.0)) return 0;
  const double pos = (std::log10(x) - log_min) * per_decade;
  if (pos <= 0.0) return 0;
  return pos >= static_cast<double>(last) ? last
                                          : static_cast<std::size_t>(pos);
}

}  // namespace

LogHistogram::LogHistogram(double min_value, double max_value,
                           std::size_t buckets_per_decade)
    : log_min_(std::log10(min_value)),
      per_decade_(static_cast<double>(buckets_per_decade)) {
  ANU_REQUIRE(min_value > 0.0 && max_value > min_value);
  ANU_REQUIRE(max_value <= std::numeric_limits<double>::max());
  ANU_REQUIRE(buckets_per_decade > 0);
  const double decades = std::log10(max_value) - log_min_;
  counts_.assign(
      static_cast<std::size_t>(std::ceil(decades * per_decade_)) + 1, 0);
  const std::size_t last = counts_.size() - 1;
  ANU_REQUIRE(last <= std::numeric_limits<std::uint32_t>::max());

  // Each edge starts at pow's estimate and moves ulp by ulp to the lowest
  // value the rule puts in its bucket: pow and the rule round differently,
  // by a few ulps.
  const auto rule = [&](double x) {
    return log10_bucket(x, log_min_, per_decade_, last);
  };
  edges_.assign(last + 1, 0.0);
  for (std::size_t i = 1; i <= last; ++i) {
    double e = std::pow(10.0, log_min_ + static_cast<double>(i) / per_decade_);
    while (rule(e) >= i) e = std::nextafter(e, 0.0);
    while (rule(e) < i) {
      e = std::nextafter(e, std::numeric_limits<double>::infinity());
    }
    edges_[i] = e;
  }

  // The widest cells that keep consecutive edges apart: two values share a
  // cell exactly when their log_bits() agree above bit shift_.
  shift_ = 52;
  for (std::size_t i = 1; i < last; ++i) {
    const auto diff = static_cast<std::uint64_t>(log_bits(edges_[i]) ^
                                                 log_bits(edges_[i + 1]));
    shift_ = std::min(shift_, static_cast<int>(std::bit_width(diff)) - 1);
  }
  shift_ = std::max(shift_, 0);  // equal edges: one value per cell
  first_cell_ = log_bits(std::nextafter(edges_[1], 0.0)) >> shift_;
  last_cell_ = log_bits(edges_[last]) >> shift_;
  guess_.reserve(static_cast<std::size_t>(last_cell_ - first_cell_) + 1);
  std::size_t below = 0;  // edges at or below the current cell's lowest value
  for (std::int64_t cell = first_cell_; cell <= last_cell_; ++cell) {
    const std::int64_t lowest = cell * (std::int64_t{1} << shift_);
    while (below < last && log_bits(edges_[below + 1]) <= lowest) ++below;
    guess_.push_back(static_cast<std::uint32_t>(std::min(below, last - 1)));
  }
}

namespace {

const LogHistogram& default_log_histogram() {
  static const LogHistogram prototype(1e-4, 1e5, 20);
  return prototype;
}

}  // namespace

LogHistogram::LogHistogram() : LogHistogram(default_log_histogram()) {}

void LogHistogram::merge(const LogHistogram& other) {
  ANU_REQUIRE(counts_.size() == other.counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

double LogHistogram::bucket_lower(std::size_t i) const {
  return std::pow(10.0, log_min_ + static_cast<double>(i) / per_decade_);
}

double LogHistogram::quantile(double q) const {
  ANU_REQUIRE(q >= 0.0 && q <= 1.0);
  if (total_ == 0) return 0.0;
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += static_cast<double>(counts_[i]);
    if (cum >= target) {
      // Geometric midpoint of bucket i.
      const double lo = log_min_ + static_cast<double>(i) / per_decade_;
      return std::pow(10.0, lo + 0.5 / per_decade_);
    }
  }
  return std::pow(10.0, log_min_ + static_cast<double>(counts_.size()) /
                                       per_decade_);
}

TimeSeries::TimeSeries(double window, double horizon) : window_(window) {
  ANU_REQUIRE(window > 0.0);
  windows_.resize(static_cast<std::size_t>(std::ceil(horizon / window)));
}

void TimeSeries::add(double time, double value) {
  ANU_REQUIRE(time >= last_time_);
  last_time_ = time;
  // Advance with the comparison a per-window scan makes: a bare
  // floor(time / window) can pick a neighbouring window at a boundary.
  while (current_ < windows_.size() &&
         time >= window_ * static_cast<double>(current_ + 1)) {
    ++current_;
  }
  if (current_ == windows_.size()) return;  // past the last window
  Window& w = windows_[current_];
  w.sum += value;
  ++w.count;
}

std::vector<TimeSeries::Point> TimeSeries::windowed_mean() const {
  std::vector<Point> out;
  out.reserve(windows_.size());
  double carry = 0.0;  // previous window's mean, for empty windows
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    const Window& win = windows_[w];
    const double mean =
        win.count ? win.sum / static_cast<double>(win.count) : carry;
    carry = mean;
    out.push_back({window_ * static_cast<double>(w + 1), mean});
  }
  return out;
}

}  // namespace anu
