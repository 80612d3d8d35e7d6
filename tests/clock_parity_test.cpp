// The sim-vs-realtime guarantee, enforced (docs/runtime.md): the control
// protocol driven by runtime::RealtimeClock makes bit-for-bit the same
// decisions as the same protocol driven by the discrete-event simulator.
//
// Both sides run identical clusters over the deterministic proto::Network
// (same seeds, same latency model). Both keep their timers on the same
// kind of calendar — the realtime clock fires a sim::Simulation of its
// own — so what this guards is the wall-time wrapper around it: the
// realtime side's clock reads a ManualTimeSource that a test driver
// advances deadline-by-deadline, and any slip in its logical now, its
// clamping of past deadlines, or its pumping shows up as differing map
// versions, partition tables, or routing answers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "proto/network.h"
#include "proto/protocol.h"
#include "runtime/realtime_clock.h"
#include "runtime/time_source.h"
#include "sim/simulation.h"

namespace anu {
namespace {

proto::LatencyModel speeds_model(std::vector<double> speeds) {
  return [speeds = std::move(speeds)](std::uint32_t s, UnitPoint share) {
    const double latency = share.to_double() / speeds[s] * 100.0 + 1e-6;
    const auto n = static_cast<std::size_t>(share.to_double() * 1e4);
    return balance::ServerReport{latency, n};
  };
}

std::vector<std::string> file_set_names() {
  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) names.push_back("p/" + std::to_string(i));
  return names;
}

/// Drives the realtime clock through purely virtual time: jump the manual
/// source to each next deadline and pump, until `until` is reached. This is
/// the same schedule the event loop would produce with a real source, minus
/// the wall-clock jitter the clock is designed to mask.
void run_virtual_until(runtime::RealtimeClock& clock,
                       runtime::ManualTimeSource& source, SimTime until) {
  for (;;) {
    const SimTime next = clock.next_deadline();
    if (next < 0.0 || next > until) break;
    if (next > source.now()) source.advance_to(next);
    clock.pump();
  }
  if (until > source.now()) source.advance_to(until);
  clock.pump();
}

struct SimSide {
  sim::Simulation sim;
  proto::Network net;
  proto::ProtocolCluster cluster;

  SimSide(std::size_t servers, const std::vector<double>& speeds,
          const proto::ProtocolConfig& config)
      : net(sim, proto::NetworkConfig{}, servers),
        cluster(sim, net, config, servers, speeds_model(speeds)) {
    cluster.register_file_sets(file_set_names());
  }

  void run_until(SimTime t) { sim.run_until(t); }
};

struct RealSide {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock{source};
  proto::Network net;
  proto::ProtocolCluster cluster;

  RealSide(std::size_t servers, const std::vector<double>& speeds,
           const proto::ProtocolConfig& config)
      : net(clock, proto::NetworkConfig{}, servers),
        cluster(clock, net, config, servers, speeds_model(speeds)) {
    cluster.register_file_sets(file_set_names());
  }

  void run_until(SimTime t) { run_virtual_until(clock, source, t); }
};

/// Full observable-state comparison at one instant.
void expect_identical(const proto::ProtocolCluster& a,
                      const proto::ProtocolCluster& b, std::size_t servers,
                      const char* at) {
  EXPECT_EQ(a.updates_published(), b.updates_published()) << at;
  EXPECT_EQ(a.replicas_agree(), b.replicas_agree()) << at;
  EXPECT_EQ(a.delegate(), b.delegate()) << at;
  for (std::uint32_t n = 0; n < servers; ++n) {
    EXPECT_EQ(a.version_of(n), b.version_of(n)) << at << " node " << n;
    EXPECT_EQ(a.map_of(n).snapshot(), b.map_of(n).snapshot())
        << at << " node " << n;
  }
  for (int k = 0; k < 16; ++k) {
    const std::string key = "parity/key/" + std::to_string(k);
    EXPECT_EQ(a.route_from(0, key), b.route_from(0, key)) << at << " " << key;
  }
}

TEST(ClockParity, OracleMembershipRoundsAreIdentical) {
  const std::vector<double> speeds{1.0, 3.0, 5.0, 7.0, 9.0};
  proto::ProtocolConfig config;
  SimSide sim_side(5, speeds, config);
  RealSide real_side(5, speeds, config);

  for (int round = 1; round <= 6; ++round) {
    const SimTime t = 120.0 * round + 10.0;
    sim_side.run_until(t);
    real_side.run_until(t);
    const std::string at = "round " + std::to_string(round);
    expect_identical(sim_side.cluster, real_side.cluster, 5, at.c_str());
    EXPECT_EQ(sim_side.cluster.updates_published(),
              static_cast<std::uint64_t>(round));
  }
  // The transports saw the same traffic, message for message.
  EXPECT_EQ(sim_side.net.messages_sent(), real_side.net.messages_sent());
  EXPECT_EQ(sim_side.net.messages_delivered(),
            real_side.net.messages_delivered());
  EXPECT_EQ(sim_side.net.bytes_sent(), real_side.net.bytes_sent());
}

TEST(ClockParity, HeartbeatMembershipIsIdentical) {
  const std::vector<double> speeds{1.0, 2.0, 8.0};
  proto::ProtocolConfig config;
  config.use_heartbeats = true;
  config.tuning_interval = 10.0;
  config.report_grace = 0.3;
  SimSide sim_side(3, speeds, config);
  RealSide real_side(3, speeds, config);

  for (int round = 1; round <= 8; ++round) {
    const SimTime t = 10.0 * round + 2.0;
    sim_side.run_until(t);
    real_side.run_until(t);
    const std::string at = "hb round " + std::to_string(round);
    expect_identical(sim_side.cluster, real_side.cluster, 3, at.c_str());
    for (std::uint32_t n = 0; n < 3; ++n) {
      EXPECT_EQ(sim_side.cluster.believed_delegate_of(n),
                real_side.cluster.believed_delegate_of(n))
          << at << " node " << n;
    }
  }
}

TEST(ClockParity, FailureAndRecoveryAreIdentical) {
  const std::vector<double> speeds{1.0, 4.0, 2.0, 6.0};
  proto::ProtocolConfig config;
  config.tuning_interval = 30.0;
  SimSide sim_side(4, speeds, config);
  RealSide real_side(4, speeds, config);

  // Scripted through the Clock seam itself, so the membership events land
  // at the same logical instant on both sides. Node 0 is the delegate —
  // killing it forces a failover, which is the interesting case.
  const auto script = [](anu::Clock& clock, proto::ProtocolCluster& cluster) {
    clock.schedule_at(95.1, [&cluster] { cluster.fail_server(0); });
    clock.schedule_at(215.7, [&cluster] { cluster.recover_server(0); });
  };
  script(sim_side.sim, sim_side.cluster);
  script(real_side.clock, real_side.cluster);

  for (int round = 1; round <= 10; ++round) {
    const SimTime t = 30.0 * round + 5.0;
    sim_side.run_until(t);
    real_side.run_until(t);
    const std::string at = "failover round " + std::to_string(round);
    expect_identical(sim_side.cluster, real_side.cluster, 4, at.c_str());
  }
  // The run exercised failover on both sides the same way.
  EXPECT_GT(sim_side.cluster.updates_published(), 5u);
}

TEST(ClockParity, LossyNetworkRetransmitsIdentically) {
  const std::vector<double> speeds{1.0, 5.0, 3.0};
  proto::ProtocolConfig config;
  config.tuning_interval = 20.0;
  faults::FaultPlanConfig chaos;
  chaos.loss = 0.15;
  chaos.duplicate = 0.05;
  faults::FaultPlan sim_plan(chaos);
  faults::FaultPlan real_plan(chaos);

  SimSide sim_side(3, speeds, config);
  RealSide real_side(3, speeds, config);
  sim_side.net.set_fault_plan(&sim_plan);
  real_side.net.set_fault_plan(&real_plan);

  for (int round = 1; round <= 8; ++round) {
    const SimTime t = 20.0 * round + 4.0;
    sim_side.run_until(t);
    real_side.run_until(t);
    const std::string at = "lossy round " + std::to_string(round);
    expect_identical(sim_side.cluster, real_side.cluster, 3, at.c_str());
    EXPECT_EQ(sim_side.cluster.retransmits(), real_side.cluster.retransmits())
        << at;
    EXPECT_EQ(sim_side.cluster.duplicates_suppressed(),
              real_side.cluster.duplicates_suppressed())
        << at;
  }
  EXPECT_EQ(sim_side.net.drops_injected(), real_side.net.drops_injected());
  // Loss actually happened — the parity above covered the retry machinery.
  EXPECT_GT(sim_side.net.drops_injected(), 0u);
}

}  // namespace
}  // namespace anu
