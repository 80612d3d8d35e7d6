// Tests for the cold-cache model (paper §5.3).
#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace anu::cluster {
namespace {

CacheConfig cache_on(std::uint32_t warmup = 4, double penalty = 3.0) {
  CacheConfig config;
  config.enabled = true;
  config.warmup_requests = warmup;
  config.cold_penalty_factor = penalty;
  return config;
}

TEST(CacheModel, DisabledIsAlwaysWarm) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  EXPECT_DOUBLE_EQ(server.warmth(FileSetId(0)), 1.0);
  double done = 0.0;
  hooks.on_complete = [&](const Completion& c) { done = c.latency(); };
  server.submit(FileSetId(0), 2.0);
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(done, 2.0);  // no penalty
}

TEST(CacheModel, ColdRequestsCostMore) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks, cache_on(4, 3.0));
  EXPECT_DOUBLE_EQ(server.warmth(FileSetId(0)), 0.0);
  std::vector<double> latencies;
  hooks.on_complete = [&](const Completion& c) {
    latencies.push_back(c.latency());
  };
  // Sequential requests so queueing does not mix into latency: submit the
  // next only after the previous completes.
  std::function<void(int)> next = [&](int remaining) {
    if (remaining == 0) return;
    server.submit(FileSetId(0), 1.0);
    sim.schedule_after(100.0, [&, remaining] { next(remaining - 1); });
  };
  next(6);
  sim.run_to_completion();
  ASSERT_EQ(latencies.size(), 6u);
  EXPECT_DOUBLE_EQ(latencies[0], 3.0);   // fully cold: 3x
  EXPECT_GT(latencies[1], latencies[2]);  // decaying
  EXPECT_DOUBLE_EQ(latencies[4], 1.0);   // warm after 4 requests
  EXPECT_DOUBLE_EQ(latencies[5], 1.0);
}

TEST(CacheModel, WarmthIsPerFileSet) {
  sim::Simulation sim;
  const ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks, cache_on(2, 2.0));
  server.submit(FileSetId(0), 1.0);
  server.submit(FileSetId(0), 1.0);
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(server.warmth(FileSetId(0)), 1.0);
  EXPECT_DOUBLE_EQ(server.warmth(FileSetId(1)), 0.0);
}

TEST(CacheModel, EvictMakesColdAgain) {
  sim::Simulation sim;
  const ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks, cache_on(2, 2.0));
  server.submit(FileSetId(0), 1.0);
  server.submit(FileSetId(0), 1.0);
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(server.warmth(FileSetId(0)), 1.0);
  server.evict(FileSetId(0));
  EXPECT_DOUBLE_EQ(server.warmth(FileSetId(0)), 0.0);
}

TEST(CacheModel, FailureFlushesAllWarmth) {
  sim::Simulation sim;
  const ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks, cache_on(1, 2.0));
  server.submit(FileSetId(3), 1.0);
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(server.warmth(FileSetId(3)), 1.0);
  server.fail();
  server.recover();
  EXPECT_DOUBLE_EQ(server.warmth(FileSetId(3)), 0.0);
}

TEST(CacheModel, MigrationEvictsOnSheddingServer) {
  sim::Simulation sim;
  ClusterConfig config;
  config.server_speeds = {1.0, 1.0};
  config.cache = cache_on(1, 2.0);
  Cluster cluster(sim, config);
  cluster.submit(ServerId(0), FileSetId(0), 1.0);
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(cluster.server(ServerId(0)).warmth(FileSetId(0)), 1.0);
  cluster.migrate_queued(FileSetId(0), ServerId(0), ServerId(1));
  EXPECT_DOUBLE_EQ(cluster.server(ServerId(0)).warmth(FileSetId(0)), 0.0);
}

}  // namespace
}  // namespace anu::cluster
