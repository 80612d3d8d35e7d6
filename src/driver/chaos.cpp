#include "driver/chaos.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/assert.h"
#include "common/parse_number.h"
#include "common/rng.h"
#include "workload/synthetic.h"

namespace anu::driver {

const char* chaos_profile_name(ChaosProfile profile) {
  switch (profile) {
    case ChaosProfile::kLight:
      return "light";
    case ChaosProfile::kHeavy:
      return "heavy";
    case ChaosProfile::kPartition:
      return "partition";
    case ChaosProfile::kDegrade:
      return "degrade";
    case ChaosProfile::kMixed:
      return "mixed";
  }
  ANU_ENSURE(false && "unknown chaos profile");
  return "unknown";
}

std::optional<ChaosProfile> parse_chaos_profile(std::string_view name) {
  return parse_name(name, ChaosProfile::kMixed, chaos_profile_name);
}

namespace {

double uniform(Xoshiro256& rng, double lo, double hi) {
  return lo + rng.next_double() * (hi - lo);
}

/// A random two-group split of the cluster, cut for a random window well
/// inside the fault phase.
faults::PartitionWindow random_partition(Xoshiro256& rng, std::size_t servers,
                                         SimTime fault_end) {
  faults::PartitionWindow window;
  const SimTime duration =
      uniform(rng, 20.0, std::min(60.0, fault_end * 0.25));
  window.start = uniform(rng, fault_end * 0.05, fault_end - duration);
  window.end = window.start + duration;
  for (std::uint32_t node = 0; node < servers; ++node) {
    (rng.next_below(2) == 0 ? window.group_a : window.group_b)
        .push_back(node);
  }
  // A one-sided coin toss is no partition at all; force a proper split.
  if (window.group_a.empty()) {
    window.group_a.push_back(window.group_b.back());
    window.group_b.pop_back();
  }
  if (window.group_b.empty()) {
    window.group_b.push_back(window.group_a.back());
    window.group_a.pop_back();
  }
  return window;
}

struct Scenario {
  faults::FaultPlanConfig faults;
  cluster::FailureSchedule failures;
};

Scenario generate_scenario(const ChaosConfig& config, Xoshiro256& rng) {
  const SimTime fault_end = config.horizon * kFaultPhaseFraction;
  Scenario scenario;
  scenario.faults.seed = rng.next();
  scenario.faults.start = 0.0;
  scenario.faults.end = fault_end;

  std::vector<cluster::MembershipEvent> events;
  const auto append = [&events](const cluster::FailureSchedule& sub) {
    for (const cluster::MembershipEvent& e : sub.events()) {
      events.push_back(e);
    }
  };
  const auto degrade_round = [&] {
    append(cluster::FailureSchedule::random_degrade(
        rng.next(), config.servers, 1, fault_end,
        uniform(rng, 40.0, fault_end * 0.3), 0.2, 0.6));
  };

  switch (config.profile) {
    case ChaosProfile::kLight:
      scenario.faults.loss = uniform(rng, 0.01, 0.05);
      scenario.faults.delay_spike = uniform(rng, 0.05, 0.15);
      scenario.faults.reorder = uniform(rng, 0.02, 0.08);
      break;
    case ChaosProfile::kHeavy:
      scenario.faults.loss = uniform(rng, 0.10, 0.25);
      scenario.faults.duplicate = uniform(rng, 0.03, 0.10);
      scenario.faults.delay_spike = uniform(rng, 0.10, 0.30);
      scenario.faults.spike_max = uniform(rng, 0.05, 0.25);
      scenario.faults.reorder = uniform(rng, 0.05, 0.15);
      break;
    case ChaosProfile::kPartition:
      scenario.faults.loss = uniform(rng, 0.01, 0.05);
      scenario.faults.partitions.push_back(
          random_partition(rng, config.servers, fault_end));
      break;
    case ChaosProfile::kDegrade:
      scenario.faults.loss = uniform(rng, 0.0, 0.02);
      degrade_round();
      break;
    case ChaosProfile::kMixed:
      scenario.faults.loss = uniform(rng, 0.05, 0.15);
      scenario.faults.duplicate = uniform(rng, 0.01, 0.05);
      scenario.faults.delay_spike = uniform(rng, 0.05, 0.20);
      scenario.faults.reorder = uniform(rng, 0.02, 0.10);
      scenario.faults.partitions.push_back(
          random_partition(rng, config.servers, fault_end));
      degrade_round();
      append(cluster::FailureSchedule::random_fail_recover(
          rng.next(), config.servers, 1, fault_end,
          uniform(rng, 30.0, fault_end * 0.25)));
      break;
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const cluster::MembershipEvent& a,
                      const cluster::MembershipEvent& b) {
                     return a.when < b.when;
                   });
  scenario.failures = cluster::FailureSchedule(std::move(events));
  return scenario;
}

/// Post-fault convergence invariants, evaluated while the protocol and
/// network are still live (see chaos.h for the list).
void check_invariants(const proto::ProtocolCluster& protocol,
                      const proto::Network& network,
                      const workload::Workload& workload,
                      std::vector<std::string>* out) {
  const std::size_t servers = network.node_count();
  std::uint32_t live_node = 0;
  bool any_live = false;
  for (std::uint32_t s = 0; s < servers; ++s) {
    if (!network.node_up(s)) continue;
    if (!any_live) {
      live_node = s;
      any_live = true;
    }
    if (protocol.version_of(s) == 0) {
      out->push_back("node " + std::to_string(s) +
                     " never applied a tuned map (version 0)");
    }
  }
  if (!any_live) {
    out->push_back("no live node at end of run");
    return;
  }
  if (!protocol.replicas_agree()) {
    out->push_back(
        "live replicas disagree on (version, map) after faults ceased");
    return;  // routing below assumes one agreed-on map
  }
  // Coverage: every file set must route to a live server on the (agreed)
  // replica. RegionMap's own invariants guarantee the partitions tile
  // [0, 1) without overlap, and resolving each applied map aborts if
  // probing exhausts the hash family; this closes the loop from file set
  // to live owner.
  for (const workload::FileSet& fs : workload.file_sets()) {
    const ServerId owner = protocol.route_from(live_node, fs.id);
    if (!network.node_up(owner.value())) {
      out->push_back("file set " + fs.name + " routes to down server " +
                     std::to_string(owner.value()));
    }
  }
}

}  // namespace

ChaosReport run_chaos(const ChaosConfig& config) {
  ANU_REQUIRE(config.servers >= 2);
  ANU_REQUIRE(config.horizon >= 300.0);
  // The tail after the fault phase must fit enough tuning rounds to
  // re-converge, or the invariants would test the faults, not the protocol.
  ANU_REQUIRE(config.horizon * (1.0 - kFaultPhaseFraction) >=
              2.0 * config.protocol.tuning_interval);

  Xoshiro256 rng(config.seed);
  ChaosReport report;
  Scenario scenario = generate_scenario(config, rng);
  report.faults = scenario.faults;
  report.failures = scenario.failures;

  static constexpr double kPaperSpeeds[] = {1.0, 3.0, 5.0, 7.0, 9.0};
  ProtocolExperimentConfig experiment;
  experiment.cluster.server_speeds.clear();
  double capacity = 0.0;
  for (std::size_t s = 0; s < config.servers; ++s) {
    const double speed = kPaperSpeeds[s % 5];
    experiment.cluster.server_speeds.push_back(speed);
    capacity += speed;
  }
  experiment.protocol = config.protocol;
  experiment.network = config.network;
  experiment.horizon = config.horizon;
  experiment.failures = scenario.failures;
  experiment.trace = config.trace;

  faults::FaultPlan plan(scenario.faults);
  experiment.faults = &plan;

  workload::SyntheticConfig synthetic;
  synthetic.seed = rng.next();
  synthetic.file_set_count = config.file_sets;
  synthetic.request_count = config.requests;
  synthetic.duration = config.horizon * 0.95;
  synthetic.cluster_capacity = capacity;
  synthetic.target_utilization = 0.5;
  const workload::Workload workload =
      workload::make_synthetic_workload(synthetic);

  experiment.on_finish = [&](const proto::ProtocolCluster& protocol,
                             const proto::Network& network) {
    check_invariants(protocol, network, workload, &report.violations);
  };
  report.result = run_protocol_experiment(experiment, workload);

  report.injected_losses = plan.injected_losses();
  report.partition_drops = plan.partition_drops();
  report.duplications = plan.duplications();
  report.delay_injections = plan.delay_injections();

  // Counter reconciliation across the three layers (plan, network,
  // protocol). Each identity ties an injection to its observation.
  const ExperimentResult::ControlPlaneStats& cp = report.result.control_plane;
  const auto reconcile = [&](bool ok, const std::string& what) {
    if (!ok) report.violations.push_back("counter mismatch: " + what);
  };
  reconcile(cp.drops_injected ==
                plan.injected_losses() + plan.partition_drops(),
            "network injected drops != plan losses + partition drops");
  reconcile(cp.duplicates_injected == plan.duplications(),
            "network duplicates != plan duplications");
  reconcile(cp.messages_delivered <= cp.messages_sent,
            "delivered more messages than were sent");
  reconcile(cp.acks_received <= cp.reliable_sent + cp.retransmits,
            "more acks than reliable transmissions");
  reconcile(cp.duplicates_suppressed <=
                cp.duplicates_injected + cp.retransmits,
            "more duplicates suppressed than could exist");
  return report;
}

}  // namespace anu::driver
