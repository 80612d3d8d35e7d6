#include "driver/protocol_experiment.h"

#include <utility>

#include "common/assert.h"
#include "driver/request_loop.h"
#include "sim/simulation.h"

namespace anu::driver {

ExperimentResult run_protocol_experiment(
    const ProtocolExperimentConfig& config,
    const workload::Workload& workload) {
  const std::size_t servers = config.cluster.server_speeds.size();

  sim::Simulation sim;
  obs::TraceSink* const trace = config.trace;
  sim.set_trace(trace);
  RequestLoop loop(sim, config.cluster, workload, config.horizon,
                   config.series_window);
  cluster::Cluster& cluster = loop.cluster();
  proto::Network network(sim, config.network, servers);
  if (config.faults != nullptr) network.set_fault_plan(config.faults);

  // Latency reports come from the real queueing servers: the protocol tick
  // pulls each server's interval statistics.
  proto::ProtocolCluster protocol(
      sim, network, config.protocol, servers,
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
    loop.movement().record(sim.now(), one);
  };

  // Requests are routed by the replica of a rotating contact node — the
  // client-asks-any-server model. Flushed requests (failures) re-dispatch
  // the same way. File sets were registered in id order, so each id reads
  // the replica's owner table directly.
  std::uint32_t contact = 0;
  auto next_contact = [&]() -> std::uint32_t {
    for (std::size_t tries = 0; tries < servers; ++tries) {
      contact = (contact + 1) % static_cast<std::uint32_t>(servers);
      if (cluster.is_up(ServerId(contact))) return contact;
    }
    ANU_ENSURE(false && "whole cluster down");
    return 0;
  };
  loop.dispatch = [&](FileSetId fs, double demand) {
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
    loop.issue(safe, fs, demand);
  };
  loop.start_arrivals();

  // Membership: cluster and protocol change together; the failed node's
  // flushed requests re-dispatch via the (surviving) replicas. The
  // protocol rides a fixed node set, so it cannot commission servers;
  // that is exercised through the balancer-level driver (run_experiment).
  RequestLoop::Membership membership;
  membership.fail = [&](ServerId s) { protocol.fail_server(s.value()); };
  membership.recover = [&](ServerId s) { protocol.recover_server(s.value()); };
  loop.schedule_membership(config.failures, std::move(membership));

  sim.run_until(loop.horizon());

  if (config.on_finish) config.on_finish(protocol, network);

  ExperimentResult result = loop.result();
  result.shared_state_bytes = protocol.map_of(protocol.delegate())
                                  .shared_state_bytes();
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
