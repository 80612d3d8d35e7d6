// Randomized protocol torture: random failure/recovery churn, random
// network conditions, both membership modes. After the churn quiets down,
// the survivors must agree on one replica and rounds must keep completing.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "proto/network.h"
#include "proto/protocol.h"
#include "sim/simulation.h"

namespace anu::proto {
namespace {

class ProtocolFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolFuzzTest, SurvivorsConvergeAfterChurn) {
  Xoshiro256 rng(GetParam());
  const std::size_t servers = 3 + rng.next_below(6);  // 3..8

  sim::Simulation sim;
  NetworkConfig net_config;
  net_config.base_delay = 0.001 + rng.next_double() * 0.05;
  net_config.jitter = rng.next_double() * 0.5;
  net_config.seed = GetParam();
  Network net(sim, net_config, servers);

  ProtocolConfig config;
  config.use_heartbeats = rng.next_below(2) == 0;
  config.report_grace = 0.5 + rng.next_double();
  std::vector<double> speeds(servers);
  for (auto& s : speeds) s = 1.0 + static_cast<double>(rng.next_below(9));
  ProtocolCluster cluster(
      sim, net, config, servers, [&speeds](std::uint32_t s, UnitPoint share) {
        return balance::ServerReport{
            share.to_double() / speeds[s] * 50.0 + 1e-6,
            static_cast<std::size_t>(share.to_double() * 5e3) + 1};
      });
  std::vector<std::string> names;
  for (std::size_t i = 0; i < servers * 8; ++i) {
    names.push_back("fz/" + std::to_string(i));
  }
  cluster.register_file_sets(names);

  // Churn: random fail/recover pairs over the first 20 rounds, never
  // taking down more than servers-2 nodes at once.
  std::vector<bool> down(servers, false);
  std::size_t down_count = 0;
  double t = 60.0;
  for (int ev = 0; ev < 10; ++ev) {
    t += 30.0 + rng.next_double() * 200.0;
    const auto victim =
        static_cast<std::uint32_t>(rng.next_below(servers));
    if (!down[victim] && down_count + 2 <= servers) {
      down[victim] = true;
      ++down_count;
      sim.schedule_at(t, [&cluster, victim] { cluster.fail_server(victim); });
    } else if (down[victim]) {
      down[victim] = false;
      --down_count;
      sim.schedule_at(t,
                      [&cluster, victim] { cluster.recover_server(victim); });
    }
  }
  // Recover everyone still down well before the end.
  for (std::uint32_t s = 0; s < servers; ++s) {
    if (down[s]) {
      t += 50.0;
      sim.schedule_at(t, [&cluster, s] { cluster.recover_server(s); });
    }
  }

  // Run far enough past the last churn for detection + several rounds.
  sim.run_until(t + 120.0 * 8);
  EXPECT_TRUE(cluster.replicas_agree()) << "seed " << GetParam();
  EXPECT_GT(cluster.updates_published(), 10u);
  // Total share always sums to exactly half (check_invariants aborts
  // inside rebalance otherwise; spot-check the visible state too).
  double total = 0.0;
  for (std::uint32_t s = 0; s < servers; ++s) {
    total += cluster.map_of(0).share(ServerId(s)).to_double();
  }
  EXPECT_NEAR(total, 0.5, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace anu::proto
