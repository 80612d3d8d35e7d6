// Order statistics and JSON output shared by the benchmark programs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]) of `samples`, which it reorders.
/// Returns 0 for an empty sample.
template <class T>
double quantile(std::vector<T>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return static_cast<double>(samples[rank]);
}

template <class T>
double median(std::vector<T> samples) {
  return quantile(samples, 0.5);
}

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

inline std::uint64_t ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// A flat JSON object of named numbers and strings, printed on one line.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
    fields_.emplace_back(key, buf);
    return *this;
  }
  JsonLine& str(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + value + "\"");
    return *this;
  }
  void print() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    std::printf("%s}\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Checks of quantile() against hand-computed values; returns failures.
inline int self_test() {
  int failures = 0;
  const auto expect = [&](double got, double want, const char* what) {
    if (got != want) {
      std::fprintf(stderr, "self-test %s: got %g want %g\n", what, got, want);
      ++failures;
    }
  };
  std::vector<int> ten{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  expect(quantile(ten, 0.5), 5, "p50 of 1..10");
  expect(quantile(ten, 0.99), 10, "p99 of 1..10");
  expect(quantile(ten, 0.0), 1, "p0 of 1..10");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(quantile(hundred, 0.99), 99, "p99 of 1..100");
  expect(quantile(hundred, 0.5), 50, "p50 of 1..100");
  std::vector<int> empty;
  expect(quantile(empty, 0.5), 0, "empty");
  expect(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0, "median of 3");
  return failures;
}

}  // namespace perfbench
