// anu_trace — inspect and synthesize workload traces.
//
// Usage:
//   anu_trace synthesize <out.trace> [file_sets] [requests] [minutes] [seed]
//   anu_trace info <trace-file>
//   anu_trace head <trace-file> [count]
//
// The text trace format is documented in src/workload/trace.h; traces made
// here replay through `anu_sim` (trace_file key) or examples/trace_replay.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "common/parse_number.h"
#include "common/stats.h"
#include "common/table.h"
#include "workload/trace.h"

using namespace anu;
using namespace anu::workload;

namespace {

int synthesize(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "synthesize needs an output path\n");
    return 2;
  }
  TraceSynthConfig config;
  // Each positional value must parse whole and in range; a bad one exits 2.
  const auto take = [&](int i, const char* name, auto& target, auto lo,
                        auto hi) {
    if (argc <= i) return true;
    const auto parsed = parse_number(argv[i], lo, hi);
    if (!parsed) {
      std::fprintf(stderr, "invalid synthesize parameters: bad %s '%s'\n",
                   name, argv[i]);
      return false;
    }
    target = *parsed;
    return true;
  };
  constexpr auto kSizeMax = std::numeric_limits<std::size_t>::max();
  // Minutes must be positive, and finite in seconds too.
  double minutes = 0.0;
  const double minutes_max = std::numeric_limits<double>::max() / 60.0;
  if (!take(3, "file_sets", config.file_set_count, std::size_t{1},
            std::size_t{std::numeric_limits<std::uint32_t>::max()}) ||
      !take(4, "requests", config.request_count, std::size_t{1}, kSizeMax) ||
      !take(5, "minutes", minutes, std::numeric_limits<double>::min(),
            minutes_max) ||
      !take(6, "seed", config.seed, std::uint64_t{0},
            std::numeric_limits<std::uint64_t>::max())) {
    return 2;
  }
  if (argc > 5) config.duration = minutes * 60.0;
  if (config.request_count < config.file_set_count) {
    std::fprintf(stderr,
                 "invalid synthesize parameters: %zu requests cannot cover "
                 "%zu file sets\n",
                 config.request_count, config.file_set_count);
    return 2;
  }
  const auto trace = synthesize_trace(config);
  if (!write_trace_file(argv[2], trace)) {
    std::fprintf(stderr, "error: cannot write %s\n", argv[2]);
    return 1;
  }
  std::printf("wrote %s: %zu requests, %zu file sets, %.1f min\n", argv[2],
              trace.request_count(), trace.file_set_count(),
              trace.span() / 60.0);
  return 0;
}

int info(const char* path) {
  TraceParseError error;
  const auto trace = read_trace_file(path, &error);
  if (!trace) {
    std::fprintf(stderr, "error: %s:%zu: %s\n", path, error.line,
                 error.message.c_str());
    return 1;
  }

  std::printf("%s: %zu requests, %zu file sets, span %.1f min, total demand "
              "%.1f unit-speed seconds\n",
              path, trace->request_count(), trace->file_set_count(),
              trace->span() / 60.0, trace->total_demand());

  // Inter-arrival burstiness across the whole trace.
  RunningStats gaps;
  double last = 0.0;
  for (const auto& r : trace->requests()) {
    gaps.add(r.arrival - last);
    last = r.arrival;
  }
  if (gaps.count() > 1 && gaps.mean() > 0.0) {
    std::printf("inter-arrival mean %.4f s, CV %.2f "
                "(1.0 = Poisson; higher = burstier)\n",
                gaps.mean(), gaps.stddev() / gaps.mean());
  }

  Table table({"fileset", "name", "requests", "share_pct", "demand",
               "weight"});
  const auto counts = trace->requests_per_file_set();
  const auto demand = trace->demand_per_file_set();
  for (std::size_t i = 0; i < trace->file_set_count(); ++i) {
    table.add_row(
        {std::to_string(i), trace->file_sets()[i].name,
         std::to_string(counts[i]),
         format_double(100.0 * static_cast<double>(counts[i]) /
                           static_cast<double>(trace->request_count()),
                       2),
         format_double(demand[i], 1),
         format_double(trace->file_sets()[i].weight, 1)});
  }
  table.print(std::cout);
  return 0;
}

int head(const char* path, std::size_t count) {
  TraceParseError error;
  const auto trace = read_trace_file(path, &error);
  if (!trace) {
    std::fprintf(stderr, "error: %s:%zu: %s\n", path, error.line,
                 error.message.c_str());
    return 1;
  }
  Table table({"arrival_s", "fileset", "demand_s"});
  for (std::size_t i = 0; i < std::min(count, trace->request_count()); ++i) {
    const auto& r = trace->requests()[i];
    table.add_row({format_double(r.arrival, 4),
                   trace->file_set(r.file_set).name,
                   format_double(r.demand, 5)});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "synthesize") == 0) {
    return synthesize(argc, argv);
  }
  if (argc == 3 && std::strcmp(argv[1], "info") == 0) {
    return info(argv[2]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "head") == 0) {
    std::size_t count = 10;
    if (argc > 3) {
      const auto parsed = parse_number(
          argv[3], std::size_t{0}, std::numeric_limits<std::size_t>::max());
      if (!parsed) {
        std::fprintf(stderr, "head: bad count '%s'\n", argv[3]);
        return 2;
      }
      count = *parsed;
    }
    return head(argv[2], count);
  }
  std::fprintf(stderr,
               "usage: %s synthesize <out> [file_sets] [requests] [minutes] "
               "[seed]\n"
               "       %s info <trace>\n"
               "       %s head <trace> [count]\n",
               argv[0], argv[0], argv[0]);
  return 2;
}
