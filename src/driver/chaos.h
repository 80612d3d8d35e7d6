// Chaos harness: deterministic randomized fault scenarios against the
// full protocol experiment (docs/chaos.md).
//
// One chaos run expands a (seed, profile) pair into a fault scenario —
// message loss, duplication, reordering, delay spikes, a partition window,
// gray-degraded servers, fail/recover cycles — generated so that every
// fault ceases by kFaultPhaseFraction of the horizon. The scenario drives
// a synthetic workload through run_protocol_experiment and then, while the
// protocol and network objects are still live, asserts the post-fault
// convergence invariants:
//
//   * every live node holds the same region-map version and table;
//   * every node actually tuned (version > 0);
//   * every file set routes, on the agreed replica, to a live server (a
//     map on which probing exhausts the hash family aborts the run when
//     it is applied, as resolving its owner table routes every file set);
//   * message / retransmit / duplicate-suppression counters reconcile with
//     the fault plan's injection counters.
//
// Violations are reported, not aborted on, so a chaos failure produces a
// diagnosable report (docs/operators-guide.md shows the workflow). The
// whole run is a pure function of ChaosConfig: the fault, workload,
// network-jitter, and retransmit-jitter RNG streams are all separately
// seeded, so one seed reproduces one scenario bit-for-bit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "driver/protocol_experiment.h"
#include "faults/fault_plan.h"

namespace anu::driver {

/// Fault-mix presets: what kind of bad day the cluster is having.
enum class ChaosProfile {
  kLight,      // low loss, small delay spikes
  kHeavy,      // heavy loss + duplication + reordering
  kPartition,  // a partition window splitting the cluster in two
  kDegrade,    // gray-degraded servers (slow, not down)
  kMixed,      // all of the above, plus a fail/recover cycle
};

[[nodiscard]] const char* chaos_profile_name(ChaosProfile profile);
[[nodiscard]] std::optional<ChaosProfile> parse_chaos_profile(
    std::string_view name);

/// Fraction of the horizon by which every generated fault has ceased; the
/// remaining tail is the convergence phase the invariants are judged on.
inline constexpr double kFaultPhaseFraction = 0.6;

struct ChaosConfig {
  std::uint64_t seed = 1;
  ChaosProfile profile = ChaosProfile::kMixed;
  /// Cluster size; speeds cycle through the paper cluster's 1,3,5,7,9.
  std::size_t servers = 5;
  /// Run length (seconds). Must leave several tuning intervals after the
  /// fault phase ends, or convergence cannot be judged.
  SimTime horizon = 1200.0;
  /// Synthetic workload size driven through the run.
  std::size_t requests = 4000;
  std::size_t file_sets = 20;
  /// Control-plane knobs (tuning interval, retransmit policy, link model).
  proto::ProtocolConfig protocol;
  proto::NetworkConfig network;
  /// Structured event tracing; null disables. Caller-owned.
  obs::TraceSink* trace = nullptr;
};

struct ChaosReport {
  ExperimentResult result;
  /// The generated scenario, for reproduction and for the manifest.
  faults::FaultPlanConfig faults;
  cluster::FailureSchedule failures;
  /// Fault-plan injection counters at end of run.
  std::uint64_t injected_losses = 0;
  std::uint64_t partition_drops = 0;
  std::uint64_t duplications = 0;
  std::uint64_t delay_injections = 0;
  /// Human-readable invariant violations; empty = the run converged and
  /// every counter reconciled.
  std::vector<std::string> violations;
  [[nodiscard]] bool passed() const { return violations.empty(); }
};

/// Expands the scenario, runs it, checks the invariants. Deterministic in
/// `config`: equal configs produce equal reports, field for field.
[[nodiscard]] ChaosReport run_chaos(const ChaosConfig& config);

}  // namespace anu::driver
