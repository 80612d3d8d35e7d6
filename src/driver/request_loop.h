// The request path both experiment drivers share: the cluster, the arrival
// cursor, the one request_issue and request_complete emit, the latency and
// movement accounting, the membership script and the result fields both
// fill alike. run_experiment (§5.1's instant delegate) and
// run_protocol_experiment (the §4 message protocol) supply only how a
// request picks its server and what membership changes do to their control
// plane, so both count requests the same way and their latencies compare.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/failure_schedule.h"
#include "common/stats.h"
#include "common/types.h"
#include "driver/experiment.h"
#include "metrics/latency_tracker.h"
#include "metrics/movement_tracker.h"
#include "sim/simulation.h"
#include "workload/workload.h"

namespace anu::driver {

class RequestLoop {
 public:
  /// What a membership change does to the driver's control plane.
  struct Membership {
    /// kFail and kRemove. Runs before the server goes down, so placement
    /// is valid before its flushed requests re-dispatch.
    std::function<void(ServerId)> fail;
    /// Runs after the server is back up.
    std::function<void(ServerId)> recover;
    /// Runs after the new server joined. Null when the driver cannot
    /// commission servers; a kAdd then aborts the run.
    std::function<void(ServerId)> add;
  };

  /// Builds the cluster on `sim`. Attach any trace sink to `sim` first, so
  /// the initial server_add roster lands in it. A zero `horizon` means the
  /// workload's span plus one second. The cluster's hooks.on_complete goes
  /// to complete() and its hooks.on_flush to `dispatch`; a driver that races
  /// replicas rewires both to settle the race first.
  RequestLoop(sim::Simulation& sim, const cluster::ClusterConfig& cluster,
              const workload::Workload& workload, SimTime horizon,
              SimTime series_window);

  // Scheduled events, the stream and the cluster's observers hold `this`.
  RequestLoop(const RequestLoop&) = delete;
  RequestLoop& operator=(const RequestLoop&) = delete;

  [[nodiscard]] SimTime horizon() const { return horizon_; }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
  [[nodiscard]] metrics::MovementTracker& movement() { return movement_; }
  /// Each file set's weight, in id order.
  [[nodiscard]] const std::vector<double>& weights() const { return weights_; }

  /// Arms the arrival cursor on the simulation's stream (one per
  /// Simulation, so one RequestLoop per Simulation). Same-time events fire
  /// in the order they were scheduled or armed, so each driver arms the
  /// cursor, its tuning timer and the membership script in a fixed order.
  void start_arrivals();
  /// Schedules every event of `script`. Gray failures (kDegrade, kRestore)
  /// leave membership alone, so the loop applies them itself.
  void schedule_membership(const cluster::FailureSchedule& script,
                           Membership membership);

  /// Emits request_issue, then submits a plain request to `to`, or a
  /// replica when `job_id` is nonzero (Server::submit_replica).
  void issue(ServerId to, FileSetId file_set, double demand,
             std::uint64_t job_id = 0);
  /// Emits request_complete and records the completion's latency.
  void complete(const cluster::Completion& c);

  /// The result with the fields both drivers fill alike: latency,
  /// movement, per-server and event-kernel accounting.
  [[nodiscard]] ExperimentResult result() const;

  /// Picks a server for one request and hands it to issue(). Called for
  /// every arrival and for every plain request a failure flushes.
  std::function<void(FileSetId, double demand)> dispatch;

 private:
  void arrive();
  void apply(const cluster::MembershipEvent& event);
  /// Commissions a server: extends the cluster and the latency tracker.
  ServerId add_server(double speed);

  sim::Simulation& sim_;
  obs::TraceSink* const trace_;
  const std::vector<workload::Request>& requests_;
  const SimTime horizon_;
  std::vector<double> weights_;
  cluster::Cluster cluster_;
  metrics::LatencyTracker latency_;
  metrics::MovementTracker movement_;
  LogHistogram histogram_;
  /// Completions in the second half of the horizon.
  RunningStats steady_state_;
  std::size_t cursor_ = 0;
  std::uint64_t issued_ = 0;
  Membership membership_;
};

}  // namespace anu::driver
