#include "common/stats.h"

#include <algorithm>
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

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)) {
  ANU_REQUIRE(hi > lo);
  ANU_REQUIRE(buckets > 0);
  counts_.assign(buckets + 1, 0);  // +1 overflow
}

void Histogram::add(double x) {
  std::size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<std::size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 2);
  }
  ++counts_[idx];
  ++total_;
}

double Histogram::quantile(double q) const {
  ANU_REQUIRE(q >= 0.0 && q <= 1.0);
  if (total_ == 0) return 0.0;
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      if (i == counts_.size() - 1) return hi_;  // overflow bucket
      const double frac =
          counts_[i] ? (target - cum) / static_cast<double>(counts_[i]) : 0.0;
      return lo_ + (static_cast<double>(i) + frac) * width_;
    }
    cum = next;
  }
  return hi_;
}

LogHistogram::LogHistogram(double min_value, double max_value,
                           std::size_t buckets_per_decade)
    : log_min_(std::log10(min_value)),
      per_decade_(static_cast<double>(buckets_per_decade)) {
  ANU_REQUIRE(min_value > 0.0 && max_value > min_value);
  ANU_REQUIRE(buckets_per_decade > 0);
  const double decades = std::log10(max_value) - log_min_;
  counts_.assign(
      static_cast<std::size_t>(std::ceil(decades * per_decade_)) + 1, 0);
}

std::size_t LogHistogram::bucket_of(double x) const {
  if (!(x > 0.0)) return 0;
  const double pos = (std::log10(x) - log_min_) * per_decade_;
  if (pos <= 0.0) return 0;
  const auto idx = static_cast<std::size_t>(pos);
  return std::min(idx, counts_.size() - 1);
}

void LogHistogram::add(double x) {
  ++counts_[bucket_of(x)];
  ++total_;
}

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
