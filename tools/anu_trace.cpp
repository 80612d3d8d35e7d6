// anu_trace — inspect and synthesize workload traces.
//
// Usage:
//   anu_trace synthesize <out.trace> [file_sets] [requests] [minutes] [seed]
//   anu_trace info <trace-file>
//   anu_trace head <trace-file> [count]
//
// The text trace format is documented in src/workload/trace.h; traces made
// here replay through `anu_sim` (trace_file key) or examples/trace_replay.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

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
  if (argc > 3) config.file_set_count = std::strtoul(argv[3], nullptr, 10);
  if (argc > 4) config.request_count = std::strtoul(argv[4], nullptr, 10);
  if (argc > 5) config.duration = std::strtod(argv[5], nullptr) * 60.0;
  if (argc > 6) config.seed = std::strtoull(argv[6], nullptr, 10);
  if (config.file_set_count == 0 || config.request_count == 0 ||
      config.duration <= 0.0) {
    std::fprintf(stderr, "invalid synthesize parameters\n");
    return 2;
  }
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
    const std::size_t count =
        argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 10;
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
