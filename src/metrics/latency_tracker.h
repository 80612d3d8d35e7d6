// Latency accounting for the evaluation figures.
//
// Figures 4 and 5 plot each server's latency over time; Figure 6(a) reports
// the aggregate mean and standard deviation over *all requests*; Figure 6(b)
// the per-server means. One tracker instance observes every completion of a
// run and can answer all three in O(servers x windows) memory: no
// completion is kept.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/server.h"
#include "common/stats.h"
#include "common/types.h"

namespace anu::metrics {

class LatencyTracker {
 public:
  /// Each server's series averages completions over windows of `window`
  /// seconds covering [0, horizon).
  LatencyTracker(std::size_t server_count, SimTime window, SimTime horizon);

  void observe(const cluster::Completion& completion);
  /// Extends the trackers when a server is commissioned mid-run.
  void add_server();

  [[nodiscard]] std::size_t server_count() const { return per_server_.size(); }

  /// All requests, whole run (Fig. 6(a)).
  [[nodiscard]] const RunningStats& aggregate() const { return aggregate_; }
  /// One server, whole run (Fig. 6(b)).
  [[nodiscard]] const RunningStats& server_stats(ServerId id) const;
  /// One server's latency by completion-time window (Figs. 4/5).
  [[nodiscard]] const TimeSeries& server_series(ServerId id) const;
  /// Requests served per server (the §5.2.2 "server 0 served only 248
  /// requests (0.37%)" analysis).
  [[nodiscard]] std::uint64_t served(ServerId id) const;
  [[nodiscard]] std::uint64_t total_served() const {
    return aggregate_.count();
  }

 private:
  SimTime window_;
  SimTime horizon_;
  RunningStats aggregate_;
  std::vector<RunningStats> per_server_;
  std::vector<TimeSeries> series_;
};

}  // namespace anu::metrics
