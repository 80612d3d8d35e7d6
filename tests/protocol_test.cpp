// Tests for the control-protocol simulation: network model, report/update
// flow, versioned replication, shed notices, delegate failover.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "faults/fault_plan.h"
#include "hash/hash_family.h"
#include "proto/network.h"
#include "proto/protocol.h"
#include "sim/simulation.h"

namespace anu::proto {
namespace {

// --- network ---------------------------------------------------------------

TEST(Network, DeliversAfterDelay) {
  sim::Simulation sim;
  NetworkConfig config;
  config.base_delay = 0.01;
  config.jitter = 0.0;
  Network net(sim, config, 2);
  double delivered_at = -1.0;
  net.attach(1, [&](std::uint32_t from, const Message&) {
    EXPECT_EQ(from, 0u);
    delivered_at = sim.now();
  });
  net.send(0, 1, ShedNotice{});
  sim.run_to_completion();
  EXPECT_NEAR(delivered_at, 0.01 + 12 * 8e-9, 1e-9);
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(Network, DropsToDownNode) {
  sim::Simulation sim;
  Network net(sim, NetworkConfig{}, 2);
  int received = 0;
  net.attach(1, [&](std::uint32_t, const Message&) { ++received; });
  net.set_node_up(1, false);
  net.send(0, 1, ShedNotice{});
  sim.run_to_completion();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(Network, DropsInFlightWhenReceiverFails) {
  sim::Simulation sim;
  NetworkConfig config;
  config.base_delay = 1.0;
  Network net(sim, config, 2);
  int received = 0;
  net.attach(1, [&](std::uint32_t, const Message&) { ++received; });
  net.send(0, 1, ShedNotice{});
  sim.schedule_at(0.5, [&] { net.set_node_up(1, false); });
  sim.run_to_completion();
  EXPECT_EQ(received, 0);
}

TEST(Network, BroadcastReachesAllOthers) {
  sim::Simulation sim;
  Network net(sim, NetworkConfig{}, 4);
  int received = 0;
  for (std::uint32_t n = 0; n < 4; ++n) {
    net.attach(n, [&](std::uint32_t, const Message&) { ++received; });
  }
  net.broadcast(2, ShedNotice{});
  sim.run_to_completion();
  EXPECT_EQ(received, 3);
}

TEST(Network, AccountsBytes) {
  sim::Simulation sim;
  Network net(sim, NetworkConfig{}, 2);
  net.attach(1, [](std::uint32_t, const Message&) {});
  RegionMapUpdate update;
  update.partitions.resize(16);
  net.send(0, 1, update);
  EXPECT_EQ(net.bytes_sent(), 24u + 16u * 12u);
}

// --- protocol ---------------------------------------------------------------

struct ProtoHarness {
  sim::Simulation sim;
  Network net;
  ProtocolCluster cluster;

  explicit ProtoHarness(std::size_t servers,
                        const std::vector<double>& speeds,
                        ProtocolConfig config = {})
      : net(sim, NetworkConfig{}, servers),
        cluster(sim, net, config, servers,
                [speeds](std::uint32_t s, UnitPoint share) {
                  // Data-plane model: latency proportional to share over
                  // speed; completions proportional to share.
                  const double latency =
                      share.to_double() / speeds[s] * 100.0 + 1e-6;
                  const auto n = static_cast<std::size_t>(
                      share.to_double() * 1e4);
                  return balance::ServerReport{latency, n};
                }) {
    std::vector<std::string> names;
    for (int i = 0; i < 40; ++i) names.push_back("p/" + std::to_string(i));
    cluster.register_file_sets(names);
  }
};

TEST(Protocol, ReplicasAgreeAfterEachRound) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  for (int round = 1; round <= 10; ++round) {
    h.sim.run_until(120.0 * round + 10.0);  // interval + slack for messages
    EXPECT_TRUE(h.cluster.replicas_agree()) << "round " << round;
    EXPECT_EQ(h.cluster.version_of(0), static_cast<std::uint64_t>(round));
  }
  EXPECT_EQ(h.cluster.updates_published(), 10u);
}

TEST(Protocol, SharesConvergeTowardSpeeds) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  h.sim.run_until(120.0 * 60);
  const auto& map = h.cluster.map_of(4);
  EXPECT_GT(map.share(ServerId(4)).to_double(),
            map.share(ServerId(0)).to_double() * 2.0);
}

TEST(Protocol, AllNodesRouteIdentically) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  h.sim.run_until(120.0 * 5 + 10.0);
  for (int i = 0; i < 40; ++i) {
    const std::string name = "p/" + std::to_string(i);
    const ServerId from0 = h.cluster.route_from(0, name);
    for (std::uint32_t s = 1; s < 5; ++s) {
      EXPECT_EQ(h.cluster.route_from(s, name), from0);
    }
  }
}

TEST(Protocol, ShedNoticesFlowToAcquirers) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  h.sim.run_until(120.0 * 20);
  std::uint64_t notices = 0;
  for (std::uint32_t s = 0; s < 5; ++s) {
    notices += h.cluster.shed_notices_received(s);
  }
  // Load moves toward fast servers during convergence, so somebody must
  // have been notified of gaining file sets.
  EXPECT_GT(notices, 0u);
}

TEST(Protocol, DelegateFailoverKeepsRoundsFlowing) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  h.sim.run_until(120.0 * 3 + 10.0);
  EXPECT_EQ(h.cluster.delegate(), 0u);
  const auto before = h.cluster.updates_published();
  h.cluster.fail_server(0);
  EXPECT_EQ(h.cluster.delegate(), 1u);
  h.sim.run_until(120.0 * 8 + 10.0);
  // Rounds keep completing under the new delegate and survivors agree.
  EXPECT_GT(h.cluster.updates_published(), before + 3);
  EXPECT_TRUE(h.cluster.replicas_agree());
}

TEST(Protocol, RecoveredNodeCatchesUpViaVersioning) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  h.sim.run_until(120.0 * 2 + 10.0);
  h.cluster.fail_server(3);
  h.sim.run_until(120.0 * 6 + 10.0);
  // Node 3 is stale while down.
  EXPECT_LT(h.cluster.version_of(3), h.cluster.version_of(0));
  h.cluster.recover_server(3);
  h.sim.run_until(120.0 * 8 + 10.0);
  EXPECT_TRUE(h.cluster.replicas_agree());
  EXPECT_EQ(h.cluster.version_of(3), h.cluster.version_of(0));
}

TEST(Protocol, SlowNetworkStillConverges) {
  // Half a second of one-way delay (WAN-grade for a LAN protocol): rounds
  // still complete because the grace window waits out stragglers.
  sim::Simulation sim;
  NetworkConfig net_config;
  net_config.base_delay = 0.5;
  net_config.jitter = 0.3;
  Network net(sim, net_config, 3);
  ProtocolConfig config;
  config.report_grace = 2.0;
  const std::vector<double> speeds{1.0, 4.0, 8.0};
  ProtocolCluster cluster(
      sim, net, config, 3, [&](std::uint32_t s, UnitPoint share) {
        return balance::ServerReport{share.to_double() / speeds[s] + 1e-6,
                                     100};
      });
  cluster.register_file_sets({"a", "b", "c", "d"});
  sim.run_until(120.0 * 20);
  EXPECT_TRUE(cluster.replicas_agree());
  EXPECT_GE(cluster.updates_published(), 18u);
}

TEST(Protocol, UpdateMessageCostIsRegionTableSized) {
  ProtoHarness h(5, {1.0, 1.0, 1.0, 1.0, 1.0});
  h.sim.run_until(130.0);
  // One round: 4 remote reports (24 B each) + 4 update broadcasts carrying
  // the 16-partition table (16 + 192 B) + shed notices. The dominant cost
  // scales with the partition table — O(servers), §5.4's argument.
  EXPECT_GE(h.net.bytes_sent(), 4u * 24 + 4u * (16 + 192));
  EXPECT_LT(h.net.bytes_sent(), 4000u);
}


TEST(Protocol, RecoveredFormerDelegateDoesNotSplitBrain) {
  // Regression: a recovered ex-delegate once resumed with a stale replica
  // and published version numbers below the cluster's, which everyone
  // rejected forever. Version-by-round plus state transfer on rejoin must
  // re-unify the replicas.
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  h.sim.run_until(120.0 * 3 + 10.0);
  h.cluster.fail_server(0);                 // the delegate dies
  h.sim.run_until(120.0 * 8 + 10.0);        // s1 runs rounds 4..8
  h.cluster.recover_server(0);              // s0 is re-elected delegate
  h.sim.run_until(120.0 * 12 + 10.0);       // s0 runs rounds 9..12
  EXPECT_TRUE(h.cluster.replicas_agree());
  EXPECT_EQ(h.cluster.version_of(0), h.cluster.version_of(4));
  EXPECT_GE(h.cluster.version_of(0), 12u);
}

TEST(Protocol, VersionsTrackRounds) {
  ProtoHarness h(3, {1.0, 2.0, 4.0});
  h.sim.run_until(120.0 * 6 + 10.0);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(h.cluster.version_of(s), 6u);
  }
}

TEST(Protocol, StateTransferCatchesUpBeforeNextRound) {
  ProtoHarness h(4, {1.0, 2.0, 4.0, 8.0});
  h.sim.run_until(120.0 * 2 + 10.0);
  h.cluster.fail_server(2);
  h.sim.run_until(120.0 * 5 + 10.0);
  h.cluster.recover_server(2);
  // Well before the next tuning round, the transfer alone has synced it.
  h.sim.run_until(120.0 * 5 + 20.0);
  EXPECT_EQ(h.cluster.version_of(2), h.cluster.version_of(0));
  EXPECT_TRUE(h.cluster.replicas_agree());
}


// --- owner tables -----------------------------------------------------------

ProtocolConfig heartbeat_config() {
  ProtocolConfig config;
  config.use_heartbeats = true;
  return config;
}

/// The probe loop written out: where `name` routes on `map`.
ServerId probe_owner(const core::RegionMap& map, std::string_view name,
                     const ProtocolConfig& config) {
  const HashFamily family(config.hash_seed);
  for (std::uint32_t r = 0; r < config.max_probe_rounds; ++r) {
    if (const auto owner = map.owner_at(family.unit_point(name, r))) {
      return *owner;
    }
  }
  ADD_FAILURE() << name << " is unowned";
  return {};
}

/// (file set, from, to), as on_shed reports a shed.
using Shed = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;

/// Every file set `self` routed to under `before` and no longer does under
/// `after`, ascending: the sheds applying `after` must announce.
std::vector<Shed> brute_force_sheds(std::uint32_t self,
                                    const core::RegionMap& before,
                                    const core::RegionMap& after,
                                    const std::vector<std::string>& names,
                                    const ProtocolConfig& config) {
  std::vector<Shed> sheds;
  for (std::uint32_t fs = 0; fs < names.size(); ++fs) {
    if (probe_owner(before, names[fs], config) != ServerId(self)) continue;
    const ServerId to = probe_owner(after, names[fs], config);
    if (to != ServerId(self)) sheds.emplace_back(fs, self, to.value());
  }
  return sheds;
}

/// Forwards to a proto::Network and hands every delivery to `around`,
/// which must call `deliver` once — so a test can read a node's replica
/// just before and just after the node handles a message.
class ObservedTransport final : public Transport {
 public:
  using Around = std::function<void(std::uint32_t node, const Message&,
                                    const std::function<void()>& deliver)>;

  explicit ObservedTransport(Network& network) : network_(network) {}

  Around around;

  void attach(std::uint32_t node, Handler handler) override {
    network_.attach(node, [this, node, handler = std::move(handler)](
                              std::uint32_t from, const Message& message) {
      around(node, message, [&] { handler(from, message); });
    });
  }
  void set_node_up(std::uint32_t node, bool up) override {
    network_.set_node_up(node, up);
  }
  [[nodiscard]] bool node_up(std::uint32_t node) const override {
    return network_.node_up(node);
  }
  void send(std::uint32_t from, std::uint32_t to, Message message) override {
    network_.send(from, to, std::move(message));
  }
  [[nodiscard]] std::size_t node_count() const override {
    return network_.node_count();
  }

 private:
  Network& network_;
};

TEST(OwnerTable, RoutesAndShedsMatchTheProbeLoopUnderFaults) {
  constexpr std::uint32_t kServers = 8;
  constexpr int kRounds = 16;
  const std::vector<double> speeds{1.0, 3.0, 5.0, 7.0, 9.0, 1.0, 3.0, 5.0};
  sim::Simulation sim;
  Network net(sim, NetworkConfig{}, kServers);
  faults::FaultPlanConfig fault_config;
  fault_config.loss = 0.10;
  fault_config.duplicate = 0.10;
  faults::FaultPlan plan(fault_config);
  net.set_fault_plan(&plan);
  ObservedTransport transport(net);
  ProtocolConfig config = heartbeat_config();
  ProtocolCluster cluster(
      sim, transport, config, kServers,
      [&speeds](std::uint32_t s, UnitPoint share) {
        return balance::ServerReport{
            share.to_double() / speeds[s] * 100.0 + 1e-6,
            static_cast<std::size_t>(share.to_double() * 1e4)};
      });
  std::vector<std::string> names;
  for (int i = 0; i < 300; ++i) names.push_back("eq/" + std::to_string(i));
  cluster.register_file_sets(names);

  std::vector<Shed> shed_calls;
  cluster.on_shed = [&](std::uint32_t fs, std::uint32_t from,
                        std::uint32_t to) {
    shed_calls.emplace_back(fs, from, to);
  };
  std::size_t audited = 0;
  std::size_t sheds_seen = 0;
  transport.around = [&](std::uint32_t node, const Message& message,
                         const std::function<void()>& deliver) {
    if (!std::holds_alternative<RegionMapUpdate>(message)) {
      deliver();
      return;
    }
    const core::RegionMap before = cluster.map_of(node);
    shed_calls.clear();
    deliver();
    EXPECT_EQ(shed_calls, brute_force_sheds(node, before, cluster.map_of(node),
                                            names, config))
        << "node " << node << " at t=" << sim.now();
    ++audited;
    sheds_seen += shed_calls.size();
  };

  // Two fail/recover cycles; the first takes down the delegate.
  sim.schedule_at(120.0 * 3 + 30.0, [&] { cluster.fail_server(0); });
  sim.schedule_at(120.0 * 6 + 30.0, [&] { cluster.recover_server(0); });
  sim.schedule_at(120.0 * 9 + 30.0, [&] { cluster.fail_server(5); });
  sim.schedule_at(120.0 * 12 + 30.0, [&] { cluster.recover_server(5); });
  for (int round = 1; round <= kRounds; ++round) {
    sim.run_until(120.0 * round + 20.0);
    for (std::uint32_t n = 0; n < kServers; ++n) {
      if (!net.node_up(n)) continue;
      for (std::uint32_t i = 0; i < names.size(); ++i) {
        ASSERT_EQ(cluster.route_from(n, FileSetId(i)),
                  cluster.route_from(n, names[i]))
            << "node " << n << " file set " << i << " round " << round;
      }
    }
  }
  // The run exercised what it checks: faults fired, maps moved file sets,
  // and the memo served most replicas without re-resolving.
  EXPECT_GT(plan.injected_losses(), 0u);
  EXPECT_GT(plan.duplications(), 0u);
  EXPECT_GT(audited, 50u);
  EXPECT_GT(sheds_seen, 0u);
  EXPECT_LT(cluster.owner_tables_resolved() * 2,
            cluster.owner_tables_requested());
}

TEST(OwnerTable, OneResolutionPerDistinctMap) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  h.sim.run_until(120.0 * 10 + 10.0);
  ASSERT_TRUE(h.cluster.replicas_agree());
  // Every node adopts a map at construction, at registration, and once per
  // round; the equal-share map resolves once per file-set list, and each
  // round's map once, however many replicas apply it.
  EXPECT_EQ(h.cluster.owner_tables_requested(), 5u + 5u + 5u * 10u);
  EXPECT_LE(h.cluster.owner_tables_resolved(), 2u + 10u);
}

TEST(OwnerTable, SameVersionDifferentMapsRouteByContent) {
  // Under heartbeat split views two delegates can publish different maps
  // as one round's version. Each replica must route by its own map, so the
  // owner-table memo has to compare map content, not versions.
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  h.sim.run_until(120.0 * 3 + 10.0);
  core::RegionMap a = h.cluster.map_of(0);
  core::RegionMap b = a;
  a.rebalance(core::RegionMap::normalize_shares({1.0, 1.0, 1.0, 1.0, 12.0}));
  b.rebalance(core::RegionMap::normalize_shares({12.0, 1.0, 1.0, 1.0, 1.0}));
  RegionMapUpdate update;
  update.version = 1000;
  update.round = 1000;
  update.partitions = a.snapshot();
  h.net.send(0, 1, update);
  h.sim.run_until(h.sim.now() + 1.0);
  update.partitions = b.snapshot();
  h.net.send(0, 2, update);
  h.sim.run_until(h.sim.now() + 1.0);

  ASSERT_EQ(h.cluster.version_of(1), 1000u);
  ASSERT_EQ(h.cluster.version_of(2), 1000u);
  EXPECT_TRUE(h.cluster.map_of(1) == a);
  EXPECT_TRUE(h.cluster.map_of(2) == b);
  const ProtocolConfig config;
  std::size_t differing = 0;
  for (std::uint32_t i = 0; i < 40; ++i) {
    const std::string name = "p/" + std::to_string(i);
    const ServerId on_a = probe_owner(a, name, config);
    const ServerId on_b = probe_owner(b, name, config);
    EXPECT_EQ(h.cluster.route_from(1, FileSetId(i)), on_a) << name;
    EXPECT_EQ(h.cluster.route_from(2, FileSetId(i)), on_b) << name;
    if (on_a != on_b) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

// --- heartbeat failure detection -------------------------------------------

// --- reliable delivery under faults ----------------------------------------

TEST(Reliability, RoundsConvergeUnderHeavyLoss) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0});
  faults::FaultPlanConfig fault_config;
  fault_config.loss = 0.2;
  faults::FaultPlan plan(fault_config);
  h.net.set_fault_plan(&plan);
  h.sim.run_until(120.0 * 10 + 20.0);
  // One in five control messages vanished, yet every round still closed:
  // retransmission carried the reports in and the map updates out.
  EXPECT_TRUE(h.cluster.replicas_agree());
  EXPECT_EQ(h.cluster.updates_published(), 10u);
  EXPECT_GT(plan.injected_losses(), 0u);
  EXPECT_GT(h.cluster.retransmits(), 0u);
  EXPECT_GT(h.cluster.acks_received(), 0u);
  // Acks only exist for reliable transmissions; the books must balance.
  EXPECT_LE(h.cluster.acks_received(),
            h.cluster.reliable_sent() + h.cluster.retransmits());
}

TEST(Reliability, DuplicatedMessagesAreSuppressedNotReapplied) {
  ProtoHarness h(4, {1.0, 2.0, 4.0, 8.0});
  faults::FaultPlanConfig fault_config;
  fault_config.duplicate = 0.5;
  faults::FaultPlan plan(fault_config);
  h.net.set_fault_plan(&plan);
  h.sim.run_until(120.0 * 8 + 20.0);
  EXPECT_TRUE(h.cluster.replicas_agree());
  EXPECT_EQ(h.cluster.updates_published(), 8u);
  EXPECT_GT(plan.duplications(), 0u);
  EXPECT_GT(h.cluster.duplicates_suppressed(), 0u);
}

TEST(Reliability, LossFreeRunsNeverRetransmit) {
  ProtoHarness h(3, {1.0, 2.0, 4.0});
  h.sim.run_until(120.0 * 5 + 20.0);
  EXPECT_GT(h.cluster.reliable_sent(), 0u);
  EXPECT_EQ(h.cluster.retransmits(), 0u);
  EXPECT_EQ(h.cluster.duplicates_suppressed(), 0u);
  EXPECT_EQ(h.cluster.retries_abandoned(), 0u);
  // Every reliable message was acked exactly once.
  EXPECT_EQ(h.cluster.acks_received(), h.cluster.reliable_sent());
}

TEST(Reliability, PendingRetriesAbandonedWhenPeerFails) {
  ProtoHarness h(4, {1.0, 2.0, 4.0, 8.0});
  // Cut all of node 3's links so everything sent to it stays pending,
  // then declare it failed: the senders must abandon, not spin forever.
  faults::FaultPlan plan{faults::FaultPlanConfig{}};
  h.net.set_fault_plan(&plan);
  h.sim.schedule_at(115.0, [&] {
    for (std::uint32_t peer = 0; peer < 3; ++peer) plan.partition(peer, 3);
  });
  h.sim.schedule_at(125.0, [&] { h.cluster.fail_server(3); });
  h.sim.run_until(120.0 * 4 + 20.0);
  EXPECT_GT(h.cluster.retries_abandoned(), 0u);
  EXPECT_TRUE(h.cluster.replicas_agree());
}

TEST(HeartbeatView, SelfAlwaysUp) {
  const HeartbeatView view(HeartbeatConfig{}, 4, 2);
  EXPECT_TRUE(view.believes_up(2, 1e9));
}

TEST(HeartbeatView, SuspectsAfterSilence) {
  HeartbeatView view(HeartbeatConfig{}, 3, 0);
  view.heard_from(1, 10.0);
  EXPECT_TRUE(view.believes_up(1, 12.0));
  EXPECT_FALSE(view.believes_up(1, 14.0));  // > 3.5 s silent
  view.heard_from(1, 14.5);                 // came back
  EXPECT_TRUE(view.believes_up(1, 15.0));
}

TEST(HeartbeatView, DelegateFollowsSuspicion) {
  HeartbeatView view(HeartbeatConfig{}, 3, 2);
  view.heard_from(0, 0.0);
  view.heard_from(1, 100.0);
  EXPECT_EQ(view.believed_delegate(1.0), 0u);
  EXPECT_EQ(view.believed_delegate(100.0), 1u);  // 0 long silent
  EXPECT_EQ(view.believed_delegate(1000.0), 2u); // everyone silent: self
}

TEST(HeartbeatView, FlappingPeerFollowsLatestEvidence) {
  HeartbeatView view(HeartbeatConfig{}, 3, 2);
  view.heard_from(0, 0.0);
  view.heard_from(1, 6.0);
  EXPECT_EQ(view.believed_delegate(1.0), 0u);
  // Node 0 goes silent past the suspicion threshold: delegate shifts to 1.
  EXPECT_EQ(view.believed_delegate(8.0), 1u);
  // It flaps back: a single fresh beacon restores it immediately.
  view.heard_from(0, 8.5);
  EXPECT_EQ(view.believed_delegate(9.0), 0u);
  // And silent again: suspicion re-arms from the latest beacon, not the
  // first one.
  view.heard_from(1, 18.0);
  EXPECT_EQ(view.believed_delegate(20.0), 1u);
}

TEST(HeartbeatView, AllPeersSuspectedElectsSelf) {
  HeartbeatView view(HeartbeatConfig{}, 4, 3);
  for (std::uint32_t p = 0; p < 3; ++p) view.heard_from(p, 10.0);
  EXPECT_EQ(view.believed_delegate(11.0), 0u);
  // Total silence: the node must still name a delegate — itself — so a
  // fully partitioned node keeps making progress instead of wedging.
  EXPECT_EQ(view.believed_delegate(1e6), 3u);
  EXPECT_EQ(view.believed_up_count(1e6), 1u);
}

TEST(HeartbeatView, UpCountTracksViews) {
  HeartbeatView view(HeartbeatConfig{}, 4, 0);
  for (std::uint32_t p = 1; p < 4; ++p) view.heard_from(p, 50.0);
  EXPECT_EQ(view.believed_up_count(51.0), 4u);
  EXPECT_EQ(view.believed_up_count(60.0), 1u);  // only self
}

TEST(ProtocolHeartbeat, ConvergesLikeOracleMembership) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0}, heartbeat_config());
  h.sim.run_until(120.0 * 30);
  EXPECT_TRUE(h.cluster.replicas_agree());
  const auto& map = h.cluster.map_of(0);
  EXPECT_GT(map.share(ServerId(4)).to_double(),
            map.share(ServerId(0)).to_double() * 2.0);
}

TEST(ProtocolHeartbeat, FailureDetectedWithoutOracle) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0}, heartbeat_config());
  h.sim.run_until(120.0 * 3 + 10.0);
  const double before_share =
      h.cluster.map_of(1).share(ServerId(4)).to_double();
  EXPECT_GT(before_share, 0.0);
  h.cluster.fail_server(4);  // only kills the process/link — no oracle call
  // Within suspect_after, peers notice; the next round reclaims its region.
  h.sim.run_until(120.0 * 5 + 10.0);
  EXPECT_EQ(h.cluster.map_of(0).share(ServerId(4)).raw(), 0u);
  EXPECT_FALSE(h.cluster.believed_up(0, 4));
}

TEST(ProtocolHeartbeat, DelegateFailoverIsEmergent) {
  ProtoHarness h(5, {1.0, 3.0, 5.0, 7.0, 9.0}, heartbeat_config());
  h.sim.run_until(120.0 * 2 + 10.0);
  EXPECT_EQ(h.cluster.believed_delegate_of(3), 0u);
  const auto rounds_before = h.cluster.updates_published();
  h.cluster.fail_server(0);
  h.sim.run_until(120.0 * 6 + 10.0);
  // Every survivor's local view elected server 1; rounds kept flowing.
  for (std::uint32_t s = 1; s < 5; ++s) {
    EXPECT_EQ(h.cluster.believed_delegate_of(s), 1u) << "node " << s;
  }
  EXPECT_GT(h.cluster.updates_published(), rounds_before + 2);
  EXPECT_TRUE(h.cluster.replicas_agree());
}

TEST(ProtocolHeartbeat, RecoveryRedetected) {
  ProtoHarness h(4, {1.0, 2.0, 4.0, 8.0}, heartbeat_config());
  h.sim.run_until(120.0 * 2 + 10.0);
  h.cluster.fail_server(2);
  h.sim.run_until(120.0 * 4 + 10.0);
  EXPECT_FALSE(h.cluster.believed_up(0, 2));
  h.cluster.recover_server(2);
  // Its heartbeats resume; peers re-admit it and the delegate regrows it.
  h.sim.run_until(120.0 * 8 + 10.0);
  EXPECT_TRUE(h.cluster.believed_up(0, 2));
  EXPECT_GT(h.cluster.map_of(0).share(ServerId(2)).raw(), 0u);
  EXPECT_TRUE(h.cluster.replicas_agree());
}

}  // namespace
}  // namespace anu::proto
