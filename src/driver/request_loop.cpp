#include "driver/request_loop.h"

#include <utility>

#include "common/assert.h"
#include "obs/trace_sink.h"

namespace anu::driver {

namespace {

std::vector<double> file_set_weights(const workload::Workload& w) {
  std::vector<double> weights;
  weights.reserve(w.file_set_count());
  for (const auto& fs : w.file_sets()) weights.push_back(fs.weight);
  return weights;
}

}  // namespace

RequestLoop::RequestLoop(sim::Simulation& sim,
                         const cluster::ClusterConfig& cluster,
                         const workload::Workload& workload, SimTime horizon,
                         SimTime series_window)
    : sim_(sim),
      trace_(sim.trace()),
      requests_(workload.requests()),
      horizon_(horizon > 0.0 ? horizon : workload.span() + 1.0),
      weights_(file_set_weights(workload)),
      cluster_(sim, cluster),
      latency_(cluster_.server_count(), series_window, horizon_),
      movement_(weights_) {
  cluster_.hooks.on_complete = [this](const cluster::Completion& c) {
    complete(c);
  };
  cluster_.hooks.on_flush = [this](FileSetId fs, double demand,
                                   std::uint64_t) {
    dispatch(fs, demand);
  };
}

// The arrival cursor is the simulation's stream item: each firing submits
// every request due now and re-arms the stream at the next arrival. So
// arrivals cost no calendar insert, slab slot or callable, and the calendar
// holds only completions, timers and messages.
void RequestLoop::start_arrivals() {
  sim_.set_stream([this] { arrive(); });
  if (!requests_.empty()) sim_.arm_stream(requests_.front().arrival);
}

void RequestLoop::arrive() {
  while (cursor_ < requests_.size() &&
         requests_[cursor_].arrival <= sim_.now()) {
    const workload::Request& r = requests_[cursor_++];
    ++issued_;
    dispatch(r.file_set, r.demand);
  }
  if (cursor_ < requests_.size()) sim_.arm_stream(requests_[cursor_].arrival);
}

void RequestLoop::issue(ServerId to, FileSetId file_set, double demand,
                        std::uint64_t job_id) {
  if (trace_) {
    trace_->emit(sim_.now(), obs::EventType::kRequestIssue, file_set.value(),
                 to.value(), 0, demand);
  }
  if (job_id == 0) {
    cluster_.submit(to, file_set, demand);
  } else {
    cluster_.server(to).submit_replica(file_set, demand, job_id);
  }
}

void RequestLoop::complete(const cluster::Completion& c) {
  latency_.observe(c);
  histogram_.add(c.latency());
  if (c.completion >= horizon_ * 0.5) steady_state_.add(c.latency());
  if (trace_) {
    trace_->emit(c.completion, obs::EventType::kRequestComplete,
                 c.file_set.value(), c.server.value(), 0, c.latency());
  }
}

ServerId RequestLoop::add_server(double speed) {
  const ServerId id = cluster_.add_server(speed);
  latency_.add_server();
  return id;
}

void RequestLoop::schedule_membership(const cluster::FailureSchedule& script,
                                      Membership membership) {
  membership_ = std::move(membership);
  for (const cluster::MembershipEvent& event : script.events()) {
    sim_.schedule_at(event.when, [this, event] { apply(event); });
  }
}

void RequestLoop::apply(const cluster::MembershipEvent& event) {
  switch (event.action) {
    case cluster::MembershipAction::kFail:
    case cluster::MembershipAction::kRemove:
      membership_.fail(event.server);
      cluster_.fail_server(event.server);
      break;
    case cluster::MembershipAction::kRecover:
      cluster_.recover_server(event.server);
      membership_.recover(event.server);
      break;
    case cluster::MembershipAction::kAdd:
      ANU_ENSURE(membership_.add != nullptr &&
                 "kAdd unsupported by this driver");
      membership_.add(add_server(event.speed));
      break;
    case cluster::MembershipAction::kDegrade:
      // Gray failure: the server keeps heartbeating, reporting and
      // serving; only the latency it reports can tell the tuner something
      // is wrong.
      cluster_.degrade_server(event.server, event.factor);
      break;
    case cluster::MembershipAction::kRestore:
      cluster_.restore_server(event.server);
      break;
  }
}

ExperimentResult RequestLoop::result() const {
  ExperimentResult result;
  const std::size_t servers = cluster_.server_count();
  result.server_count = servers;
  result.horizon = horizon_;
  result.aggregate = latency_.aggregate();
  result.steady_state = steady_state_;
  result.latency_histogram = histogram_;
  for (std::uint32_t s = 0; s < servers; ++s) {
    const auto id = ServerId(s);
    result.per_server.push_back(latency_.server_stats(id));
    result.served.push_back(latency_.served(id));
    result.latency_over_time.push_back(
        latency_.server_series(id).windowed_mean());
    result.utilization.push_back(cluster_.server(id).utilization(horizon_));
  }
  result.movement = movement_.rounds();
  result.total_moved = movement_.total_moved();
  result.unique_moved = movement_.unique_moved();
  result.percent_workload_moved = movement_.percent_workload_moved();
  result.percent_unique_workload_moved =
      movement_.percent_unique_workload_moved();
  result.requests_issued = issued_;
  result.requests_completed = latency_.total_served();
  result.events_executed = sim_.events_executed();
  result.queue = sim_.queue_stats();
  return result;
}

}  // namespace anu::driver
