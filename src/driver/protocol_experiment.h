// Full-stack experiment: the queueing data plane driven through the
// message-level control protocol (src/proto) instead of an instantaneous
// balancer — the most faithful end-to-end configuration in the repository.
//
// Both drivers run their requests through one loop (driver/request_loop.h),
// so comparing the two measures the control plane alone. What this driver
// does differently from run_experiment(AnuBalancer):
//   * latency reports travel the simulated network to the elected delegate;
//     the new region table is broadcast and applied per node as messages
//     arrive — nodes transiently disagree;
//   * each request is routed by the replica of an (arbitrary, round-robin)
//     contact node, exactly as clients of a shared-disk cluster consult
//     whatever server they reach — a stale replica routes to a server that
//     no longer "owns" the file set, which that server still serves (any
//     server can; it is simply no longer cache-preferred);
//   * sheds hand queued requests over when the shedding node learns of the
//     new map, not at a global instant.
//
// bench/micro_protocol and tests use this to validate that the cheap
// `ExperimentConfig::control_delay` abstraction in run_experiment matches
// the real protocol's behaviour.
#pragma once

#include <functional>

#include "cluster/cluster.h"
#include "cluster/failure_schedule.h"
#include "driver/experiment.h"
#include "faults/fault_plan.h"
#include "proto/network.h"
#include "proto/protocol.h"
#include "workload/workload.h"

namespace anu::driver {

struct ProtocolExperimentConfig {
  cluster::ClusterConfig cluster;
  proto::ProtocolConfig protocol;
  proto::NetworkConfig network;
  SimTime horizon = 0.0;          // 0 = workload span
  SimTime series_window = 300.0;
  cluster::FailureSchedule failures;
  /// Adversarial network faults (docs/chaos.md) applied to every protocol
  /// message. Null = clean network. Caller-owned; must outlive the run —
  /// the caller can read the plan's injection counters afterwards.
  faults::FaultPlan* faults = nullptr;
  /// Invoked after the horizon with the protocol and network still live,
  /// before teardown — the chaos harness checks convergence invariants
  /// (replica agreement, routing coverage, counter reconciliation) here.
  std::function<void(const proto::ProtocolCluster&, const proto::Network&)>
      on_finish;
  /// Structured event tracing (docs/observability.md); this path also
  /// emits the protocol's message_send/recv, delegate_round, map_apply
  /// and delegate_elected events. Null disables; caller-owned.
  obs::TraceSink* trace = nullptr;
};

/// Runs the workload with ANU managed by the real §4 message protocol.
/// Returns the same result structure as run_experiment (oracle-dependent
/// fields like unique_moved are filled from shed events).
[[nodiscard]] ExperimentResult run_protocol_experiment(
    const ProtocolExperimentConfig& config,
    const workload::Workload& workload);

}  // namespace anu::driver
