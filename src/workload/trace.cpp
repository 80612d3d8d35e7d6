#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numbers>
#include <string_view>

#include "common/assert.h"
#include "common/distributions.h"
#include "common/parse_number.h"
#include "common/rng.h"
#include "workload/streams.h"

namespace anu::workload {

void write_trace(std::ostream& os, const Workload& workload) {
  os << "# libanu trace v1\n";
  os << "# filesets=" << workload.file_set_count()
     << " requests=" << workload.request_count() << "\n";
  os.precision(17);  // round-trip exact for IEEE doubles
  for (const FileSet& fs : workload.file_sets()) {
    os << "fileset " << fs.id.value() << ' ' << fs.name << ' ' << fs.weight
       << '\n';
  }
  for (const Request& r : workload.requests()) {
    os << "req " << r.arrival << ' ' << r.file_set.value() << ' ' << r.demand
       << '\n';
  }
}

bool write_trace_file(const std::string& path, const Workload& workload) {
  std::ofstream f(path);
  if (!f) return false;
  write_trace(f, workload);
  return static_cast<bool>(f);
}

namespace {

std::optional<Workload> fail(TraceParseError* error, std::size_t line,
                             std::string message) {
  if (error) *error = TraceParseError{line, std::move(message)};
  return std::nullopt;
}

}  // namespace

std::optional<Workload> read_trace(std::istream& is, TraceParseError* error) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr auto kMaxId = std::numeric_limits<std::uint32_t>::max();
  std::vector<FileSet> file_sets;
  std::vector<Request> requests;
  std::string line;
  std::size_t lineno = 0;
  SimTime last_arrival = 0.0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::vector<std::string_view> words = split_words(line);
    if (words.empty()) continue;
    // Word i as a number in [lo, hi]; every record is exactly four words.
    const auto number = [&](std::size_t i, auto lo, auto hi) {
      return words.size() == 4 ? parse_number(words[i], lo, hi) : std::nullopt;
    };
    if (words[0] == "fileset") {
      const auto id = number(1, 0u, kMaxId);
      const auto weight = number(3, -kMax, kMax);
      if (!id || !weight) return fail(error, lineno, "malformed fileset line");
      if (*id != file_sets.size()) {
        return fail(error, lineno, "fileset ids must be dense and in order");
      }
      if (*weight < 0.0) {
        return fail(error, lineno, "negative fileset weight");
      }
      file_sets.push_back({FileSetId(*id), std::string(words[2]), *weight});
    } else if (words[0] == "req") {
      const auto arrival = number(1, -kMax, kMax);
      const auto fs = number(2, 0u, kMaxId);
      const auto demand = number(3, -kMax, kMax);
      if (!arrival || !fs || !demand) {
        return fail(error, lineno, "malformed req line");
      }
      if (*fs >= file_sets.size()) {
        return fail(error, lineno, "req references undeclared fileset");
      }
      if (*arrival < last_arrival) {
        return fail(error, lineno, "requests out of time order");
      }
      if (*demand < 0.0) {
        return fail(error, lineno, "negative demand");
      }
      last_arrival = *arrival;
      requests.push_back(Request{*arrival, FileSetId(*fs), *demand});
    } else {
      const std::string kind(words[0]);
      return fail(error, lineno, "unknown record kind: " + kind);
    }
  }
  return Workload(std::move(file_sets), std::move(requests));
}

std::optional<Workload> read_trace_file(const std::string& path,
                                        TraceParseError* error) {
  std::ifstream f(path);
  if (!f) {
    return fail(error, 0, "cannot open " + path);
  }
  return read_trace(f, error);
}

Workload synthesize_trace(const TraceSynthConfig& config) {
  ANU_REQUIRE(config.file_set_count > 0);
  ANU_REQUIRE(config.request_count >= config.file_set_count);
  ANU_REQUIRE(config.duration > 0.0 && std::isfinite(config.duration));
  ANU_REQUIRE(config.intensity_modulation >= 0.0 &&
              config.intensity_modulation < 1.0);

  // Per-file-set request counts: Zipf popularity over file sets.
  const Zipf popularity(config.file_set_count, config.zipf_exponent);
  std::vector<std::size_t> counts(config.file_set_count, 1);
  std::size_t assigned = config.file_set_count;
  const auto budget =
      static_cast<double>(config.request_count - config.file_set_count);
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t i = 0; i < config.file_set_count; ++i) {
    const double exact = budget * popularity.pmf(i);
    const auto whole = static_cast<std::size_t>(exact);
    counts[i] += whole;
    assigned += whole;
    remainders.emplace_back(exact - static_cast<double>(whole), i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; assigned < config.request_count; ++k, ++assigned) {
    ++counts[remainders[k % remainders.size()].second];
  }

  const double mean_demand = config.target_utilization * config.duration *
                             config.cluster_capacity /
                             static_cast<double>(config.request_count);
  const double gap_lo = 1.0;
  const BoundedPareto gap(config.pareto_shape, gap_lo,
                          gap_lo * config.pareto_bound_ratio);

  // Non-stationary intensity: arrivals generated on a "virtual clock" and
  // mapped through the inverse of the cumulative intensity
  //   Lambda(t) = t - m/(2*pi*f) * ... (we apply forward warping instead:
  // a virtual time v in [0,1] maps to real time with higher density where
  // intensity is high). Forward warp: t(v) = v - (m/(2*pi*k)) * sin(2*pi*k*v)
  // normalized to the duration; its derivative 1 - m*cos(2*pi*k*v) > 0.
  const double m = config.intensity_modulation;
  const auto k = static_cast<double>(config.intensity_periods);
  auto warp = [&](double v) {
    const double two_pi_k = 2.0 * std::numbers::pi * k;
    return (v - (m / two_pi_k) * std::sin(two_pi_k * v)) * config.duration;
  };

  std::vector<FileSet> file_sets;
  double total_weight_factor = 0.0;
  for (std::size_t i = 0; i < config.file_set_count; ++i) {
    total_weight_factor += static_cast<double>(counts[i]);
  }
  const double total_demand =
      mean_demand * static_cast<double>(config.request_count);
  for (std::size_t i = 0; i < config.file_set_count; ++i) {
    const double weight =
        total_demand * static_cast<double>(counts[i]) / total_weight_factor;
    file_sets.push_back(FileSet{FileSetId(static_cast<std::uint32_t>(i)),
                                "trace/fs" + std::to_string(i), weight});
  }
  // Renewal processes on virtual time, rescaled into [0, 1), then warped.
  std::vector<Request> requests(config.request_count);
  draw_streams(counts,
               StreamShape{.seed = config.seed,
                           .substream_base = 2000,
                           .gap = gap,
                           .span = 0.999,
                           .mean_demand = mean_demand,
                           .sigma = config.demand_jitter_sigma},
               requests, warp);
  order_by_arrival(requests);
  return Workload(std::move(file_sets), std::move(requests));
}

}  // namespace anu::workload
