// Fault-plan unit tests plus the network integration contract: what gets
// dropped, what gets charged, and that every injection is deterministic
// and accounted by cause.
#include "faults/fault_plan.h"

#include <gtest/gtest.h>

#include "proto/network.h"
#include "sim/simulation.h"

namespace anu::faults {
namespace {

TEST(FaultPlan, CleanPlanTouchesNothing) {
  FaultPlan plan(FaultPlanConfig{});
  for (int i = 0; i < 100; ++i) {
    const auto d = plan.decide(0, 1, static_cast<SimTime>(i));
    EXPECT_FALSE(d.drop);
    EXPECT_EQ(d.copies, 1u);
    EXPECT_DOUBLE_EQ(d.extra_delay, 0.0);
  }
  EXPECT_EQ(plan.injected_losses(), 0u);
  EXPECT_EQ(plan.duplications(), 0u);
  EXPECT_EQ(plan.delay_injections(), 0u);
}

TEST(FaultPlan, DecisionStreamIsDeterministic) {
  FaultPlanConfig config;
  config.loss = 0.2;
  config.duplicate = 0.1;
  config.delay_spike = 0.3;
  config.reorder = 0.1;
  config.seed = 99;
  FaultPlan a(config);
  FaultPlan b(config);
  for (int i = 0; i < 2000; ++i) {
    const auto da = a.decide(0, 1, 1.0);
    const auto db = b.decide(0, 1, 1.0);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.copies, db.copies);
    EXPECT_DOUBLE_EQ(da.extra_delay, db.extra_delay);
  }
  EXPECT_EQ(a.injected_losses(), b.injected_losses());
  EXPECT_EQ(a.duplications(), b.duplications());
  EXPECT_EQ(a.delay_injections(), b.delay_injections());
}

TEST(FaultPlan, LossRateRoughlyHonored) {
  FaultPlanConfig config;
  config.loss = 0.3;
  FaultPlan plan(config);
  const int n = 20'000;
  for (int i = 0; i < n; ++i) plan.decide(0, 1, 0.0);
  const double rate =
      static_cast<double>(plan.injected_losses()) / static_cast<double>(n);
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(FaultPlan, ActiveWindowConfinesProbabilisticFaults) {
  FaultPlanConfig config;
  config.loss = 0.9;
  config.start = 10.0;
  config.end = 20.0;
  config.seed = 7;
  FaultPlan plan(config);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(plan.decide(0, 1, 5.0).drop);   // before the window
    EXPECT_FALSE(plan.decide(0, 1, 25.0).drop);  // after the window
  }
  std::uint64_t drops = 0;
  for (int i = 0; i < 100; ++i) drops += plan.decide(0, 1, 15.0).drop;
  EXPECT_GT(drops, 50u);
  EXPECT_EQ(plan.injected_losses(), drops);
}

TEST(FaultPlan, DuplicationYieldsTwoCopies) {
  FaultPlanConfig config;
  config.duplicate = 0.99;
  FaultPlan plan(config);
  std::uint64_t copies = 0;
  for (int i = 0; i < 100; ++i) copies += plan.decide(0, 1, 0.0).copies;
  EXPECT_GT(copies, 150u);  // nearly every decision duplicated
  EXPECT_EQ(plan.duplications(), copies - 100u);
}

TEST(FaultPlan, DelaySpikesAreBounded) {
  FaultPlanConfig config;
  config.delay_spike = 0.99;
  config.spike_max = 0.05;
  config.reorder = 0.99;
  config.reorder_max = 0.01;
  FaultPlan plan(config);
  for (int i = 0; i < 1000; ++i) {
    const auto d = plan.decide(0, 1, 0.0);
    EXPECT_GE(d.extra_delay, 0.0);
    EXPECT_LT(d.extra_delay, config.spike_max + config.reorder_max);
  }
  EXPECT_GT(plan.delay_injections(), 0u);
}

TEST(FaultPlan, ManualPartitionIsSymmetricAndHeals) {
  FaultPlan plan(FaultPlanConfig{});
  plan.partition(1, 2);
  EXPECT_TRUE(plan.partitioned(1, 2, 0.0));
  EXPECT_TRUE(plan.partitioned(2, 1, 0.0));
  EXPECT_FALSE(plan.partitioned(1, 3, 0.0));
  EXPECT_TRUE(plan.decide(2, 1, 0.0).drop);
  EXPECT_TRUE(plan.decide(2, 1, 0.0).partitioned);
  plan.heal(1, 2);
  EXPECT_FALSE(plan.partitioned(1, 2, 0.0));
  plan.partition(0, 1);
  plan.partition(2, 3);
  plan.heal();
  EXPECT_FALSE(plan.partitioned(0, 1, 0.0));
  EXPECT_FALSE(plan.partitioned(2, 3, 0.0));
}

TEST(FaultPlan, ScriptedPartitionWindowCutsCrossTrafficOnly) {
  FaultPlanConfig config;
  PartitionWindow window;
  window.start = 10.0;
  window.end = 20.0;
  window.group_a = {0, 1};
  window.group_b = {2, 3};
  config.partitions.push_back(window);
  FaultPlan plan(config);
  // Cross-group traffic drops only while the window is open.
  EXPECT_FALSE(plan.partitioned(0, 2, 5.0));
  EXPECT_TRUE(plan.partitioned(0, 2, 15.0));
  EXPECT_TRUE(plan.partitioned(3, 1, 15.0));
  EXPECT_FALSE(plan.partitioned(0, 2, 20.0));
  // Intra-group traffic is never cut.
  EXPECT_FALSE(plan.partitioned(0, 1, 15.0));
  EXPECT_FALSE(plan.partitioned(2, 3, 15.0));
  EXPECT_TRUE(plan.decide(1, 3, 12.0).drop);
  EXPECT_EQ(plan.partition_drops(), 1u);
  EXPECT_EQ(plan.injected_losses(), 0u);
}

// --- network integration: drop causes and byte accounting ------------------

proto::NetworkConfig quiet_network() {
  proto::NetworkConfig config;
  config.jitter = 0.0;
  return config;
}

TEST(NetworkFaults, EndpointDownChargesNoBytes) {
  sim::Simulation sim;
  proto::Network net(sim, quiet_network(), 2);
  net.attach(0, [](std::uint32_t, const proto::Message&) {});
  net.attach(1, [](std::uint32_t, const proto::Message&) {});
  net.set_node_up(1, false);
  net.send(0, 1, proto::Heartbeat{0});
  sim.run_to_completion();
  // Never transmitted: no bytes, no sent count, endpoint-cause drop.
  EXPECT_EQ(net.bytes_sent(), 0u);
  EXPECT_EQ(net.messages_sent(), 0u);
  EXPECT_EQ(net.drops_endpoint_down(), 1u);
  EXPECT_EQ(net.drops_injected(), 0u);
}

TEST(NetworkFaults, InjectedLossChargesBytes) {
  sim::Simulation sim;
  proto::Network net(sim, quiet_network(), 2);
  net.attach(0, [](std::uint32_t, const proto::Message&) {});
  std::uint64_t received = 0;
  net.attach(1, [&](std::uint32_t, const proto::Message&) { ++received; });
  FaultPlanConfig config;
  config.loss = 0.5;
  FaultPlan plan(config);
  net.set_fault_plan(&plan);
  const int n = 200;
  for (int i = 0; i < n; ++i) net.send(0, 1, proto::Heartbeat{0});
  sim.run_to_completion();
  EXPECT_GT(plan.injected_losses(), 0u);
  EXPECT_EQ(net.drops_injected(), plan.injected_losses());
  EXPECT_EQ(net.drops_endpoint_down(), 0u);
  EXPECT_EQ(received + plan.injected_losses(), static_cast<std::uint64_t>(n));
  // A lost message still consumed bandwidth: every send was charged.
  EXPECT_EQ(net.bytes_sent(),
            static_cast<std::uint64_t>(n) * proto::Heartbeat{}.wire_size());
  EXPECT_EQ(net.messages_sent(), static_cast<std::uint64_t>(n));
}

TEST(NetworkFaults, PartitionDropChargesNothing) {
  sim::Simulation sim;
  proto::Network net(sim, quiet_network(), 3);
  for (std::uint32_t n = 0; n < 3; ++n) {
    net.attach(n, [](std::uint32_t, const proto::Message&) {});
  }
  FaultPlan plan(FaultPlanConfig{});
  plan.partition(0, 1);
  net.set_fault_plan(&plan);
  net.send(0, 1, proto::Heartbeat{0});
  net.send(0, 2, proto::Heartbeat{0});
  sim.run_to_completion();
  // The cut link transmits nothing; the healthy link is unaffected.
  EXPECT_EQ(net.drops_injected(), 1u);
  EXPECT_EQ(plan.partition_drops(), 1u);
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.bytes_sent(), proto::Heartbeat{}.wire_size());
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(NetworkFaults, DuplicationDeliversTwiceAndChargesTwice) {
  sim::Simulation sim;
  proto::Network net(sim, quiet_network(), 2);
  net.attach(0, [](std::uint32_t, const proto::Message&) {});
  std::uint64_t received = 0;
  net.attach(1, [&](std::uint32_t, const proto::Message&) { ++received; });
  FaultPlanConfig config;
  config.duplicate = 0.99;
  config.loss = 0.0;
  FaultPlan plan(config);
  net.set_fault_plan(&plan);
  const int n = 50;
  for (int i = 0; i < n; ++i) net.send(0, 1, proto::Heartbeat{0});
  sim.run_to_completion();
  EXPECT_GT(plan.duplications(), 0u);
  EXPECT_EQ(net.duplicates_injected(), plan.duplications());
  EXPECT_EQ(received, n + plan.duplications());
  EXPECT_EQ(net.bytes_sent(),
            (n + plan.duplications()) * proto::Heartbeat{}.wire_size());
}

TEST(NetworkFaults, ReceiverFailingMidFlightIsEndpointDrop) {
  sim::Simulation sim;
  proto::Network net(sim, quiet_network(), 2);
  net.attach(0, [](std::uint32_t, const proto::Message&) {});
  net.attach(1, [](std::uint32_t, const proto::Message&) {});
  net.send(0, 1, proto::Heartbeat{0});
  net.set_node_up(1, false);  // fails while the message is in flight
  sim.run_to_completion();
  EXPECT_EQ(net.messages_sent(), 1u);  // it did hit the wire
  EXPECT_GT(net.bytes_sent(), 0u);
  EXPECT_EQ(net.messages_delivered(), 0u);
  EXPECT_EQ(net.drops_endpoint_down(), 1u);
}

}  // namespace
}  // namespace anu::faults
