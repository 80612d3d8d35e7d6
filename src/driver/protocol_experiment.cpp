#include "driver/protocol_experiment.h"

#include "common/assert.h"
#include "metrics/latency_tracker.h"
#include "metrics/movement_tracker.h"
#include "sim/sim_clock.h"
#include "sim/simulation.h"

namespace anu::driver {

ExperimentResult run_protocol_experiment(
    const ProtocolExperimentConfig& config,
    const workload::Workload& workload) {
  const SimTime horizon =
      config.horizon > 0.0 ? config.horizon : workload.span() + 1.0;
  const std::size_t servers = config.cluster.server_speeds.size();

  sim::Simulation sim;
  obs::TraceSink* const trace = config.trace;
  sim.set_trace(trace);
  cluster::Cluster cluster(sim, config.cluster);
  sim::SimClock clock(sim);
  proto::Network network(clock, config.network, servers);
  if (config.faults != nullptr) network.set_fault_plan(config.faults);
  metrics::LatencyTracker latency(servers, config.series_window, horizon);

  std::vector<double> weights;
  weights.reserve(workload.file_set_count());
  for (const auto& fs : workload.file_sets()) weights.push_back(fs.weight);
  metrics::MovementTracker movement(weights);

  // Latency reports come from the real queueing servers: the protocol tick
  // pulls each server's interval statistics.
  proto::ProtocolCluster protocol(
      clock, network, config.protocol, servers,
      [&cluster](std::uint32_t s, UnitPoint /*share*/) {
        const auto report =
            cluster.server(ServerId(s)).take_interval_report();
        return balance::ServerReport{report.mean_latency, report.completed};
      });
  std::vector<std::string> names;
  names.reserve(workload.file_set_count());
  for (const auto& fs : workload.file_sets()) names.push_back(fs.name);
  protocol.register_file_sets(names);

  // A shed hands the file set's queued requests to the acquirer the moment
  // the shedding node learns of the new map.
  protocol.on_shed = [&](std::uint32_t fs, std::uint32_t from,
                         std::uint32_t to) {
    if (cluster.is_up(ServerId(from)) && cluster.is_up(ServerId(to))) {
      cluster.migrate_queued(FileSetId(fs), ServerId(from), ServerId(to));
    }
    if (trace) {
      trace->emit(sim.now(), obs::EventType::kFileSetMove, fs, from, to);
    }
    balance::RebalanceResult one;
    one.moves.push_back(
        {FileSetId(fs), ServerId(from), ServerId(to)});
    movement.record(sim.now(), one);
  };

  RunningStats steady_state;
  LogHistogram histogram;
  cluster.on_complete = [&](const cluster::Completion& c) {
    latency.observe(c);
    histogram.add(c.latency());
    if (c.completion >= horizon * 0.5) steady_state.add(c.latency());
    if (trace) {
      trace->emit(c.completion, obs::EventType::kRequestComplete,
                  c.file_set.value(), c.server.value(), 0, c.latency());
    }
  };

  // Requests are routed by the replica of a rotating contact node — the
  // client-asks-any-server model. Flushed requests (failures) re-dispatch
  // the same way. File sets were registered in id order, so each id reads
  // the replica's owner table directly.
  std::uint64_t issued = 0;
  std::uint32_t contact = 0;
  auto next_contact = [&]() -> std::uint32_t {
    for (std::size_t tries = 0; tries < servers; ++tries) {
      contact = (contact + 1) % static_cast<std::uint32_t>(servers);
      if (cluster.is_up(ServerId(contact))) return contact;
    }
    ANU_ENSURE(false && "whole cluster down");
    return 0;
  };
  auto dispatch = [&](FileSetId fs, double demand) {
    const std::uint32_t contact_node = next_contact();
    const ServerId target = protocol.route_from(contact_node, fs);
    // A stale replica can route to a down server for a short window after
    // a failure; the contact node then falls back to its delegate's view —
    // modelled here by routing from the delegate replica.
    ServerId safe = cluster.is_up(target)
                        ? target
                        : protocol.route_from(protocol.delegate(), fs);
    // The delegate's replica is just as stale until the next round reclaims
    // the dead server's region; the live contact then serves the request
    // itself (any server can — it is simply not cache-preferred).
    if (!cluster.is_up(safe)) safe = ServerId(contact_node);
    if (trace) {
      trace->emit(sim.now(), obs::EventType::kRequestIssue, fs.value(),
                  safe.value(), 0, demand);
    }
    cluster.submit(safe, fs, demand);
  };
  cluster.on_flush = [&](FileSetId fs, double demand, std::uint64_t) {
    dispatch(fs, demand);
  };

  const auto& requests = workload.requests();
  std::size_t cursor = 0;
  std::function<void()> arrive = [&] {
    while (cursor < requests.size() && requests[cursor].arrival <= sim.now()) {
      const workload::Request& r = requests[cursor++];
      ++issued;
      dispatch(r.file_set, r.demand);
    }
    // Re-armed through a reference: copying `arrive` into the event would
    // heap-allocate its captures on every arrival.
    if (cursor < requests.size()) {
      sim.schedule_at(requests[cursor].arrival, [&arrive] { arrive(); });
    }
  };
  if (!requests.empty()) {
    sim.schedule_at(requests.front().arrival, [&arrive] { arrive(); });
  }

  // Membership: cluster and protocol change together; the failed node's
  // flushed requests re-dispatch via the (surviving) replicas.
  for (const cluster::MembershipEvent& event : config.failures.events()) {
    sim.schedule_at(event.when, [&, event] {
      switch (event.action) {
        case cluster::MembershipAction::kFail:
        case cluster::MembershipAction::kRemove:
          protocol.fail_server(event.server.value());
          cluster.fail_server(event.server);
          break;
        case cluster::MembershipAction::kRecover:
          cluster.recover_server(event.server);
          protocol.recover_server(event.server.value());
          break;
        case cluster::MembershipAction::kAdd:
          // The protocol rides a fixed node set; commissioning is exercised
          // through the balancer-level driver (run_experiment).
          ANU_ENSURE(false && "kAdd unsupported in the protocol experiment");
          break;
        case cluster::MembershipAction::kDegrade:
          // Gray failure: the node keeps heartbeating and reporting; only
          // its worsening latency reports steer the tuner away from it.
          cluster.degrade_server(event.server, event.factor);
          break;
        case cluster::MembershipAction::kRestore:
          cluster.restore_server(event.server);
          break;
      }
    });
  }

  sim.run_until(horizon);

  if (config.on_finish) config.on_finish(protocol, network);

  ExperimentResult result;
  result.server_count = servers;
  result.horizon = horizon;
  result.aggregate = latency.aggregate();
  result.steady_state = steady_state;
  result.latency_histogram = histogram;
  for (std::uint32_t s = 0; s < servers; ++s) {
    const auto id = ServerId(s);
    result.per_server.push_back(latency.server_stats(id));
    result.served.push_back(latency.served(id));
    result.latency_over_time.push_back(
        latency.server_series(id).windowed_mean());
    result.utilization.push_back(cluster.server(id).utilization(horizon));
  }
  result.movement = movement.rounds();
  result.total_moved = movement.total_moved();
  result.unique_moved = movement.unique_moved();
  result.percent_workload_moved = movement.percent_workload_moved();
  result.percent_unique_workload_moved =
      movement.percent_unique_workload_moved();
  result.shared_state_bytes = protocol.map_of(protocol.delegate())
                                  .shared_state_bytes();
  result.requests_issued = issued;
  result.requests_completed = latency.total_served();
  result.events_executed = sim.events_executed();
  result.queue = sim.queue_stats();
  result.tuning_rounds = protocol.updates_published();
  result.control_plane.messages_sent = network.messages_sent();
  result.control_plane.messages_delivered = network.messages_delivered();
  result.control_plane.drops_endpoint_down = network.drops_endpoint_down();
  result.control_plane.drops_injected = network.drops_injected();
  result.control_plane.duplicates_injected = network.duplicates_injected();
  result.control_plane.bytes_sent = network.bytes_sent();
  result.control_plane.reliable_sent = protocol.reliable_sent();
  result.control_plane.retransmits = protocol.retransmits();
  result.control_plane.acks_received = protocol.acks_received();
  result.control_plane.duplicates_suppressed =
      protocol.duplicates_suppressed();
  result.control_plane.retries_abandoned = protocol.retries_abandoned();
  return result;
}

}  // namespace anu::driver
