// Control-plane study: the §4 protocol at message level.
//
// Two questions the paper's prose raises but never measures:
//   1. What does a tuning round cost on the wire? (reports in, one region
//      table out to everyone, shed notices) — and how does that scale with
//      cluster size? The table is O(servers), so a round's bytes are
//      O(servers^2) for the naive broadcast — still trivial for hundreds
//      of servers.
//   2. Does convergence survive slow control networks? The delegate's
//      grace window trades round completeness against reaction delay.
#include <cstdio>
#include <iostream>

#include "bench_report.h"
#include "bench_util.h"
#include "driver/balancer_factory.h"
#include "driver/paper.h"
#include "driver/protocol_experiment.h"
#include "proto/network.h"
#include "proto/protocol.h"
#include "sim/simulation.h"

using namespace anu;
using namespace anu::proto;

namespace {

struct RunResult {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double share_ratio = 0.0;  // fastest/slowest share after the run
  bool agree = false;
};

RunResult run(std::size_t servers, double base_delay, double grace,
              std::uint64_t rounds) {
  sim::Simulation sim;
  NetworkConfig net_config;
  net_config.base_delay = base_delay;
  Network net(sim, net_config, servers);
  ProtocolConfig config;
  config.report_grace = grace;
  std::vector<double> speeds(servers);
  for (std::size_t s = 0; s < servers; ++s) {
    speeds[s] = 1.0 + static_cast<double>(s % 9);
  }
  ProtocolCluster cluster(
      sim, net, config, servers, [&](std::uint32_t s, UnitPoint share) {
        return balance::ServerReport{
            share.to_double() / speeds[s] * 100.0 + 1e-6,
            static_cast<std::size_t>(share.to_double() * 1e4) + 1};
      });
  std::vector<std::string> names;
  for (std::size_t i = 0; i < servers * 10; ++i) {
    names.push_back("fs/" + std::to_string(i));
  }
  cluster.register_file_sets(names);
  sim.run_until(config.tuning_interval * static_cast<double>(rounds) + 30.0);

  RunResult result;
  result.rounds = cluster.updates_published();
  result.messages = net.messages_delivered();
  result.bytes = net.bytes_sent();
  result.agree = cluster.replicas_agree();
  double lo = 1e300, hi = 0.0;
  const auto& map = cluster.map_of(0);
  for (std::uint32_t s = 0; s < servers; ++s) {
    const double norm = map.share(ServerId(s)).to_double() / speeds[s];
    lo = std::min(lo, norm);
    hi = std::max(hi, norm);
  }
  result.share_ratio = hi / lo;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  anu::bench::BenchReport report(&argc, argv);
  std::printf("Control-plane protocol study (section 4 message flows)\n");

  Table scale({"servers", "rounds", "messages", "bytes_total",
               "bytes_per_round", "replicas_agree"});
  for (std::size_t servers : {5u, 10u, 20u, 40u, 80u}) {
    const auto r = run(servers, 0.001, 0.5, 30);
    scale.add_row({std::to_string(servers), std::to_string(r.rounds),
                   std::to_string(r.messages), std::to_string(r.bytes),
                   std::to_string(r.bytes / std::max<std::uint64_t>(r.rounds, 1)),
                   r.agree ? "yes" : "NO"});
  }
  bench::section("wire cost per tuning round vs cluster size (LAN, 1 ms)");
  scale.print(std::cout);

  Table delay({"one_way_delay_s", "grace_s", "rounds_done", "share_ratio",
               "replicas_agree"});
  for (double d : {0.001, 0.05, 0.5, 2.0}) {
    const auto r = run(5, d, std::max(0.5, 4.0 * d), 40);
    delay.add_row({format_double(d, 3), format_double(std::max(0.5, 4.0 * d), 1),
                   std::to_string(r.rounds), format_double(r.share_ratio, 2),
                   r.agree ? "yes" : "NO"});
  }
  bench::section("convergence vs control-network delay (5 servers)");
  delay.print(std::cout);

  // --- emergent membership: heartbeat detection latency -------------------
  {
    sim::Simulation sim;
    Network net(sim, NetworkConfig{}, 5);
    ProtocolConfig config;
    config.use_heartbeats = true;
    const std::vector<double> speeds{1.0, 3.0, 5.0, 7.0, 9.0};
    ProtocolCluster cluster(
        sim, net, config, 5, [&](std::uint32_t s, UnitPoint share) {
          return balance::ServerReport{
              share.to_double() / speeds[s] * 100.0 + 1e-6,
              static_cast<std::size_t>(share.to_double() * 1e4) + 1};
        });
    std::vector<std::string> names;
    for (int i = 0; i < 40; ++i) names.push_back("hb/" + std::to_string(i));
    cluster.register_file_sets(names);
    sim.run_until(120.0 * 3 + 10.0);
    const double failed_at = sim.now();
    cluster.fail_server(0);  // no oracle: peers must detect via silence
    double detected_at = 0.0;
    while (sim.now() < failed_at + 30.0) {
      sim.run_until(sim.now() + 0.25);
      if (detected_at == 0.0 && !cluster.believed_up(1, 0)) {
        detected_at = sim.now();
      }
    }
    sim.run_until(120.0 * 6 + 10.0);
    bench::section("heartbeat membership (no oracle)");
    std::printf("delegate death detected by peers after %.2f s "
                "(suspect_after = %.1f s); region reclaimed at the next "
                "round; replicas agree: %s\n",
                detected_at - failed_at, config.heartbeat.suspect_after,
                cluster.replicas_agree() ? "yes" : "NO");
  }

  // --- full stack: queueing data plane through the message protocol ------
  {
    const auto workload = driver::paper_synthetic_workload();
    driver::ProtocolExperimentConfig protocol_config;
    protocol_config.cluster = cluster::paper_cluster();
    const auto through_protocol =
        driver::run_protocol_experiment(protocol_config, workload);

    driver::ExperimentConfig direct_config = driver::paper_experiment_config();
    driver::SystemConfig system;
    system.kind = driver::SystemKind::kAnu;
    auto balancer = driver::make_balancer(system, 5);
    const auto direct =
        driver::run_experiment(direct_config, workload, *balancer);

    Table check({"driver", "mean_latency", "steady_mean", "moves",
                 "weakest_served_pct"});
    auto row = [&](const char* label, const driver::ExperimentResult& r) {
      check.add_row({label, format_double(r.aggregate.mean(), 3),
                     format_double(r.steady_state.mean(), 3),
                     std::to_string(r.total_moved),
                     format_double(100.0 * static_cast<double>(r.served[0]) /
                                       static_cast<double>(
                                           r.requests_completed),
                                   2)});
    };
    row("direct (instant control)", direct);
    row("message protocol (LAN)", through_protocol);
    bench::section("validation: paper workload through both drivers");
    check.print(std::cout);
  }

  bench::note("\nShape checks: a round's wire cost is dominated by the");
  bench::note("O(servers) region table broadcast to O(servers) nodes;");
  bench::note("even two-second control delays only stretch the grace window");
  bench::note("— the protocol still completes every round and replicas");
  bench::note("agree, because versioned updates are idempotent.");
  return 0;
}
