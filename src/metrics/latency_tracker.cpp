#include "metrics/latency_tracker.h"

#include "common/assert.h"

namespace anu::metrics {

LatencyTracker::LatencyTracker(std::size_t server_count, SimTime window,
                               SimTime horizon)
    : window_(window),
      horizon_(horizon),
      per_server_(server_count),
      series_(server_count, TimeSeries(window, horizon)) {}

void LatencyTracker::observe(const cluster::Completion& completion) {
  ANU_REQUIRE(completion.server.value() < per_server_.size());
  const double latency = completion.latency();
  aggregate_.add(latency);
  per_server_[completion.server.value()].add(latency);
  series_[completion.server.value()].add(completion.completion, latency);
}

void LatencyTracker::add_server() {
  per_server_.emplace_back();
  series_.emplace_back(window_, horizon_);
}

const RunningStats& LatencyTracker::server_stats(ServerId id) const {
  ANU_REQUIRE(id.value() < per_server_.size());
  return per_server_[id.value()];
}

const TimeSeries& LatencyTracker::server_series(ServerId id) const {
  ANU_REQUIRE(id.value() < series_.size());
  return series_[id.value()];
}

std::uint64_t LatencyTracker::served(ServerId id) const {
  return server_stats(id).count();
}

}  // namespace anu::metrics
