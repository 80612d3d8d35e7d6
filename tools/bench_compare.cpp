// bench_compare — regression gate over BENCH_*.json artifacts.
//
// Usage:
//   bench_compare [options] <baseline> <candidate>
//
// `baseline` and `candidate` are either two result files (bench_report.h
// schema "anu.bench") or two directories, in which case every
// BENCH_*.json in the candidate directory is compared against the
// same-named file in the baseline directory. A candidate file with no
// baseline counterpart is reported as new (not a failure) so adding a
// benchmark never blocks; a baseline file with no candidate is reported as
// missing and fails, so benchmarks cannot silently vanish from the run.
//
// Options:
//   --threshold <metric>=<pct>  allowed regression for one metric, percent
//                               (finite, >= 0, read whole); repeatable.
//                               Defaults: wall_time_s=10,
//                               events_per_sec=10, peak_rss_bytes=20.
//   --quiet                     only print regressions
//
// Direction is per metric: wall_time_s and peak_rss_bytes regress upward,
// events_per_sec regresses downward. Metrics absent from either file, or 0
// in the baseline (a harness with no natural event unit), are skipped.
// Exit status: 0 = within thresholds, 1 = regression (the CI gate), 2 =
// usage or I/O error. Baseline-refresh procedure: docs/ci.md.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse_number.h"
#include "common/table.h"
#include "obs/json.h"

namespace {

namespace fs = std::filesystem;
using anu::Table;
using anu::obs::Json;

struct Metric {
  const char* name;
  bool higher_is_worse;
  double default_threshold_pct;
};

constexpr Metric kMetrics[] = {
    {"wall_time_s", true, 10.0},
    {"events_per_sec", false, 10.0},
    {"peak_rss_bytes", true, 20.0},
};

struct Options {
  std::vector<std::pair<std::string, double>> thresholds;
  bool quiet = false;

  [[nodiscard]] double threshold_for(const Metric& metric) const {
    for (const auto& [name, pct] : thresholds) {
      if (name == metric.name) return pct;
    }
    return metric.default_threshold_pct;
  }
};

std::optional<Json> load_json(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  std::string error;
  auto doc = Json::parse(buffer.str(), &error);
  if (!doc) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path.c_str(),
                 error.c_str());
  }
  return doc;
}

/// Compares one baseline/candidate pair; appends rows, returns the number
/// of regressions.
int compare_files(const std::string& base_path, const std::string& cand_path,
                  const Options& options, Table& table) {
  const auto base = load_json(base_path);
  const auto cand = load_json(cand_path);
  if (!base || !cand) return 1;  // unreadable artifact = failed gate
  const Json* name = cand->find("name");
  const std::string label =
      name && !name->is_null() ? name->as_string() : cand_path;
  int regressions = 0;
  for (const Metric& metric : kMetrics) {
    const Json* b = base->find(metric.name);
    const Json* c = cand->find(metric.name);
    if (!b || !c) continue;
    const double bv = b->as_number();
    const double cv = c->as_number();
    if (bv == 0.0) continue;  // no baseline signal for this metric
    const double change_pct = (cv - bv) / bv * 100.0;
    const double regression_pct =
        metric.higher_is_worse ? change_pct : -change_pct;
    const double allowed = options.threshold_for(metric);
    const bool regressed = regression_pct > allowed;
    if (regressed) ++regressions;
    if (regressed || !options.quiet) {
      table.add_row({label, metric.name, anu::format_double(bv, 4),
                     anu::format_double(cv, 4),
                     anu::format_double(change_pct, 1) + "%",
                     anu::format_double(allowed, 1) + "%",
                     regressed ? "REGRESSED" : "ok"});
    }
  }
  return regressions;
}

int compare_dirs(const std::string& base_dir, const std::string& cand_dir,
                 const Options& options, Table& table) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(cand_dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) == 0 &&
        file.size() > 5 + 5 &&  // "BENCH_" + ".json"
        file.substr(file.size() - 5) == ".json") {
      names.push_back(file);
    }
  }
  std::sort(names.begin(), names.end());
  int regressions = 0;
  for (const std::string& file : names) {
    const std::string base_path = base_dir + "/" + file;
    if (!fs::exists(base_path)) {
      std::printf("bench_compare: %s: new benchmark (no baseline)\n",
                  file.c_str());
      continue;
    }
    regressions += compare_files(base_path, cand_dir + "/" + file, options,
                                 table);
  }
  // A benchmark that disappeared from the run is a broken pipeline, not an
  // improvement.
  for (const auto& entry : fs::directory_iterator(base_dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) == 0 &&
        file.substr(std::max<std::size_t>(file.size(), 5) - 5) == ".json" &&
        !fs::exists(cand_dir + "/" + file)) {
      std::fprintf(stderr, "bench_compare: %s: missing from candidate\n",
                   file.c_str());
      ++regressions;
    }
  }
  return regressions;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_compare [--threshold <metric>=<pct>]... "
               "[--quiet] <baseline> <candidate>\n"
               "metrics: wall_time_s (default 10%%), events_per_sec (10%%), "
               "peak_rss_bytes (20%%)\n"
               "baseline/candidate: BENCH_*.json files, or directories of "
               "them\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr double kMaxPercent = std::numeric_limits<double>::max();
  Options options;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--threshold") == 0 && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos) return usage();
      const std::string value = spec.substr(eq + 1);
      const auto pct = anu::parse_number(value, 0.0, kMaxPercent);
      if (!pct) {
        std::fprintf(stderr, "bad --threshold value: %s\n", value.c_str());
        return 2;
      }
      options.thresholds.emplace_back(spec.substr(0, eq), *pct);
    } else if (std::strcmp(arg, "--quiet") == 0) {
      options.quiet = true;
    } else if (arg[0] == '-') {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) return usage();

  std::error_code ec;
  const bool base_is_dir = fs::is_directory(paths[0], ec);
  const bool cand_is_dir = fs::is_directory(paths[1], ec);
  if (base_is_dir != cand_is_dir) {
    std::fprintf(stderr,
                 "bench_compare: baseline and candidate must both be files "
                 "or both directories\n");
    return 2;
  }

  Table table({"benchmark", "metric", "baseline", "candidate", "change",
               "allowed", "verdict"});
  const int regressions =
      base_is_dir ? compare_dirs(paths[0], paths[1], options, table)
                  : compare_files(paths[0], paths[1], options, table);
  table.print(std::cout);
  if (regressions > 0) {
    std::printf("bench_compare: %d regression(s)\n", regressions);
    return 1;
  }
  std::printf("bench_compare: within thresholds\n");
  return 0;
}
