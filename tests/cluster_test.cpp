// Tests for the cluster model: servers, membership, failure schedules.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/failure_schedule.h"

namespace anu::cluster {
namespace {

TEST(Server, ServesAndReportsInterval) {
  sim::Simulation sim;
  const ServerHooks hooks;
  Server server(sim, ServerId(0), 2.0, hooks);
  server.submit(FileSetId(0), 4.0);  // 2 seconds of service
  sim.run_to_completion();
  const auto report = server.take_interval_report();
  EXPECT_EQ(report.completed, 1u);
  EXPECT_DOUBLE_EQ(report.mean_latency, 2.0);
  // Interval stats reset after the report; lifetime stats persist.
  const auto empty = server.take_interval_report();
  EXPECT_EQ(empty.completed, 0u);
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(Server, CompletionObserverFires) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(3), 1.0, hooks);
  Completion seen{};
  hooks.on_complete = [&](const Completion& c) { seen = c; };
  server.submit(FileSetId(7), 5.0);
  sim.run_to_completion();
  EXPECT_EQ(seen.server, ServerId(3));
  EXPECT_EQ(seen.file_set, FileSetId(7));
  EXPECT_DOUBLE_EQ(seen.latency(), 5.0);
}

TEST(Server, FailFlushesThroughCallback) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  std::vector<std::uint32_t> flushed;
  hooks.on_flush = [&](FileSetId fs, double, std::uint64_t) {
    flushed.push_back(fs.value());
  };
  server.submit(FileSetId(1), 100.0);
  server.submit(FileSetId(2), 100.0);
  sim.schedule_at(1.0, [&] { server.fail(); });
  sim.run_to_completion();
  EXPECT_EQ(flushed, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_FALSE(server.is_up());
}

TEST(Cluster, PaperConfiguration) {
  sim::Simulation sim;
  Cluster c(sim, paper_cluster());
  EXPECT_EQ(c.server_count(), 5u);
  EXPECT_DOUBLE_EQ(c.total_capacity(), 25.0);
  EXPECT_DOUBLE_EQ(c.server(ServerId(0)).speed(), 1.0);
  EXPECT_DOUBLE_EQ(c.server(ServerId(4)).speed(), 9.0);
}

TEST(Cluster, FailureAffectsCapacityAndUpCount) {
  sim::Simulation sim;
  Cluster c(sim, paper_cluster());
  c.fail_server(ServerId(4));
  EXPECT_EQ(c.up_count(), 4u);
  EXPECT_DOUBLE_EQ(c.total_capacity(), 16.0);
  EXPECT_DOUBLE_EQ(c.up_speeds()[4], 0.0);
  c.recover_server(ServerId(4));
  EXPECT_EQ(c.up_count(), 5u);
}

TEST(Cluster, AddServerGetsNextId) {
  sim::Simulation sim;
  Cluster c(sim, paper_cluster());
  const ServerId id = c.add_server(4.0);
  EXPECT_EQ(id, ServerId(5));
  EXPECT_EQ(c.server_count(), 6u);
  EXPECT_DOUBLE_EQ(c.total_capacity(), 29.0);
}

TEST(Cluster, CompletionForwardedToObserver) {
  sim::Simulation sim;
  Cluster c(sim, paper_cluster());
  int completions = 0;
  c.hooks.on_complete = [&](const Completion&) { ++completions; };
  c.submit(ServerId(2), FileSetId(0), 1.0);
  sim.run_to_completion();
  EXPECT_EQ(completions, 1);
}

TEST(Cluster, HooksFireInOrderAcrossOneServersLife) {
  sim::Simulation sim;
  ClusterConfig config;
  config.server_speeds = {1.0};
  Cluster c(sim, config);
  std::ostringstream log;
  std::vector<double> flushed_demands;
  c.hooks.on_start = [&](std::uint64_t id) { log << " start" << id; };
  c.hooks.on_complete = [&](const Completion& done) {
    log << " complete" << done.job_id << "@" << done.completion;
  };
  c.hooks.on_idle = [&](ServerId s) { log << " idle" << s.value(); };
  c.hooks.on_flush = [&](FileSetId, double demand, std::uint64_t id) {
    log << " flush" << id;
    flushed_demands.push_back(demand);
  };
  Server& server = c.server(ServerId(0));
  server.submit_replica(FileSetId(0), 2.0, 1);  // idle: starts at once
  server.submit_replica(FileSetId(0), 3.0, 2);
  server.submit(FileSetId(0), 1.0);
  sim.run_until(7.0);
  log << " |";
  server.submit_replica(FileSetId(0), 4.0, 3);
  server.submit(FileSetId(0), 1.0);
  c.fail_server(ServerId(0));
  EXPECT_EQ(log.str(),
            " start1 start2 complete1@2 complete2@5 complete0@6 idle0 |"
            " start3 flush3 flush0");
  EXPECT_EQ(flushed_demands, (std::vector<double>{4.0, 1.0}));
}

// The FIFO service station inside Server (§5.1): one request at a time, in
// arrival order, in demand / speed seconds.

TEST(FifoResource, SingleJobLatencyIsDemandOverSpeed) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 4.0, hooks);
  double completed_at = -1.0;
  hooks.on_complete = [&](const Completion& c) { completed_at = c.completion; };
  server.submit(FileSetId(0), 8.0);
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(completed_at, 2.0);  // 8 units / speed 4
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(FifoResource, JobsQueueFifo) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  std::vector<std::uint32_t> done;
  hooks.on_complete = [&](const Completion& c) {
    done.push_back(c.file_set.value());
  };
  for (std::uint32_t i = 0; i < 3; ++i) server.submit(FileSetId(i), 1.0);
  sim.run_to_completion();
  EXPECT_EQ(done, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(FifoResource, QueueingLatencyAccumulates) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  std::vector<double> latencies;
  hooks.on_complete = [&](const Completion& c) {
    latencies.push_back(c.latency());
  };
  for (int i = 0; i < 3; ++i) server.submit(FileSetId(0), 2.0);
  sim.run_to_completion();
  ASSERT_EQ(latencies.size(), 3u);
  EXPECT_DOUBLE_EQ(latencies[0], 2.0);
  EXPECT_DOUBLE_EQ(latencies[1], 4.0);
  EXPECT_DOUBLE_EQ(latencies[2], 6.0);
}

TEST(FifoResource, HeterogeneousSpeedMatchesPaperModel) {
  // Paper §5.1: same request costs T on speed-1 and T/9 on speed-9.
  sim::Simulation sim;
  ServerHooks hooks;
  Server slow(sim, ServerId(0), 1.0, hooks);
  Server fast(sim, ServerId(1), 9.0, hooks);
  double slow_done = 0.0, fast_done = 0.0;
  hooks.on_complete = [&](const Completion& c) {
    (c.server == ServerId(0) ? slow_done : fast_done) = c.completion;
  };
  slow.submit(FileSetId(0), 9.0);
  fast.submit(FileSetId(0), 9.0);
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(slow_done, 9.0);
  EXPECT_DOUBLE_EQ(fast_done, 1.0);
}

TEST(FifoResource, SpeedChangeAppliesToNextService) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 2.0, hooks);
  std::vector<double> completions;
  hooks.on_complete = [&](const Completion& c) {
    completions.push_back(c.completion);
  };
  server.degrade(0.5);  // speed 1
  server.submit(FileSetId(0), 1.0);
  server.submit(FileSetId(0), 1.0);
  sim.schedule_at(0.5, [&] { server.restore(); });
  sim.run_to_completion();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);  // started before the change
  EXPECT_DOUBLE_EQ(completions[1], 1.5);  // second runs at speed 2
}

TEST(FifoResource, FailFlushesQueueAndInflight) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  int completed = 0;
  std::vector<std::uint32_t> flushed;
  hooks.on_flush = [&](FileSetId fs, double, std::uint64_t) {
    flushed.push_back(fs.value());
  };
  hooks.on_complete = [&](const Completion&) { ++completed; };
  for (std::uint32_t i = 0; i < 3; ++i) server.submit(FileSetId(i), 10.0);
  sim.schedule_at(1.0, [&] { server.fail(); });
  sim.run_to_completion();
  EXPECT_EQ(completed, 0);
  EXPECT_EQ(flushed, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_FALSE(server.is_up());
}

TEST(FifoResource, RecoverAfterFail) {
  sim::Simulation sim;
  const ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  server.submit(FileSetId(0), 10.0);
  sim.schedule_at(1.0, [&] {
    server.fail();
    server.recover();
    server.submit(FileSetId(1), 1.0);
  });
  sim.run_to_completion();
  EXPECT_TRUE(server.is_up());
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(FifoResource, UtilizationTracksBusyTime) {
  sim::Simulation sim;
  const ServerHooks hooks;
  Server server(sim, ServerId(0), 2.0, hooks);
  server.submit(FileSetId(0), 8.0);  // 4 seconds of service
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(server.busy_time(), 4.0);
  EXPECT_DOUBLE_EQ(server.utilization(10.0), 0.4);
}

TEST(FifoResource, CompletionCanResubmit) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  int completions = 0;
  hooks.on_complete = [&](const Completion&) {
    if (++completions < 3) server.submit(FileSetId(0), 1.0);
  };
  server.submit(FileSetId(0), 1.0);
  sim.run_to_completion();
  EXPECT_EQ(completions, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(FifoResource, ExtractQueuedLeavesInFlight) {
  sim::Simulation sim;
  const ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  Server acquirer(sim, ServerId(1), 1.0, hooks);
  server.submit(FileSetId(7), 10.0);  // starts service immediately
  server.submit(FileSetId(7), 1.0);
  server.submit(FileSetId(8), 1.0);
  // Only the queued file-set-7 request moves, not the one in service.
  EXPECT_EQ(server.move_queued(FileSetId(7), acquirer), 1u);
  EXPECT_EQ(server.queue_length(), 2u);  // in service + remaining fs 8
  EXPECT_EQ(acquirer.queue_length(), 1u);
}

TEST(FifoResource, ExtractQueuedPreservesArrivalTimes) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  Server acquirer(sim, ServerId(1), 1.0, hooks);
  std::vector<Completion> done;
  hooks.on_complete = [&](const Completion& c) { done.push_back(c); };
  server.submit(FileSetId(0), 10.0);
  sim.schedule_at(2.5, [&] { server.submit(FileSetId(1), 1.0); });
  sim.run_until(3.0);
  EXPECT_EQ(server.move_queued(FileSetId(1), acquirer), 1u);
  sim.run_until(4.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].server, ServerId(1));
  EXPECT_DOUBLE_EQ(done[0].arrival, 2.5);
  EXPECT_DOUBLE_EQ(done[0].completion, 4.0);
}

TEST(FifoResource, PresetArrivalPreserved) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  double latency = 0.0;
  hooks.on_complete = [&](const Completion& c) { latency = c.latency(); };
  sim.schedule_at(5.0, [&] {
    // A migrated request keeps its original arrival.
    server.submit(FileSetId(0), 1.0, 2.0);
  });
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(latency, 4.0);  // waited 3 (elsewhere) + 1 service
}

TEST(FifoResource, LongQueueKeepsFifoOrderThroughCancelAndExtract) {
  // Enough waiting jobs that the queue drops its consumed prefix while
  // jobs still wait, with cancels and a migration in between. Request n
  // belongs to file set n and is replica n + 1.
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  Server acquirer(sim, ServerId(1), 1.0, hooks);
  std::vector<std::uint32_t> done;
  std::vector<std::uint32_t> moved_done;
  hooks.on_complete = [&](const Completion& c) {
    if (c.server == ServerId(0)) {
      done.push_back(c.file_set.value());
    } else {
      moved_done.push_back(c.file_set.value());
      EXPECT_EQ(c.job_id, 0u);  // a moved replica becomes a plain request
    }
  };
  for (std::uint32_t n = 0; n < 64; ++n) {
    server.submit_replica(FileSetId(n), 1.0, n + 1);
  }
  sim.run_until(20.5);  // 0..19 done, 20 in service
  for (std::uint32_t n = 30; n < 40; ++n) {
    EXPECT_EQ(server.cancel(n + 1), CancelOutcome::kQueued);
  }
  std::size_t moved = 0;
  for (std::uint32_t n = 0; n < 64; n += 7) {
    moved += server.move_queued(FileSetId(n), acquirer);
  }
  EXPECT_EQ(moved, 6u);
  EXPECT_EQ(server.queue_length(), 44u - 10u - 6u);
  EXPECT_EQ(acquirer.queue_length(), 6u);
  sim.run_to_completion();

  std::vector<std::uint32_t> expected;
  for (std::uint32_t n = 0; n < 64; ++n) {
    const bool waiting = n > 20;
    const bool cancelled = n >= 30 && n < 40;
    if (!cancelled && !(waiting && n % 7 == 0)) expected.push_back(n);
  }
  EXPECT_EQ(done, expected);
  EXPECT_EQ(moved_done, (std::vector<std::uint32_t>{21, 28, 42, 49, 56, 63}));
  EXPECT_EQ(server.requests_served() + acquirer.requests_served(), 54u);
}

TEST(FifoResource, BusyTimePartialAtObservation) {
  sim::Simulation sim;
  const ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  server.submit(FileSetId(0), 10.0);
  sim.run_until(4.0);
  EXPECT_DOUBLE_EQ(server.busy_time(), 4.0);  // only service rendered
  EXPECT_DOUBLE_EQ(server.utilization(4.0), 1.0);
}

TEST(FifoResource, FailAccountsPartialService) {
  sim::Simulation sim;
  const ServerHooks hooks;
  Server server(sim, ServerId(0), 2.0, hooks);
  server.submit(FileSetId(0), 10.0);  // 5s service at speed 2
  sim.schedule_at(2.0, [&] { server.fail(); });
  sim.run_until(8.0);
  EXPECT_DOUBLE_EQ(server.busy_time(), 2.0);
}

TEST(FifoResource, CancelQueuedRemovesSilently) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  int completions = 0;
  int flushes = 0;
  hooks.on_flush = [&](FileSetId, double, std::uint64_t) { ++flushes; };
  hooks.on_complete = [&](const Completion&) { ++completions; };
  server.submit(FileSetId(0), 4.0);
  server.submit_replica(FileSetId(1), 4.0, 7);
  EXPECT_EQ(server.queue_length(), 2u);

  EXPECT_EQ(server.cancel(7), CancelOutcome::kQueued);
  EXPECT_EQ(server.queue_length(), 1u);
  sim.run_to_completion();
  // Only the uncancelled job completed; the cancelled one never surfaced
  // through on_complete or on_flush.
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(flushes, 0);
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(FifoResource, CancelInServiceAbortsAndStartsNext) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  std::vector<std::uint32_t> done;
  hooks.on_complete = [&](const Completion& c) {
    done.push_back(c.file_set.value());
  };
  server.submit_replica(FileSetId(1), 10.0, 1);
  server.submit(FileSetId(2), 2.0);

  sim.schedule_at(3.0, [&] {
    EXPECT_EQ(server.cancel(1), CancelOutcome::kInService);
    // The next waiting job takes over immediately.
    EXPECT_EQ(server.queue_length(), 1u);
    EXPECT_DOUBLE_EQ(server.busy_time(), 3.0);
  });
  sim.run_to_completion();
  // File set 1's completion never fires; file set 2 starts at t=3 and
  // finishes at t=5.
  EXPECT_EQ(done, (std::vector<std::uint32_t>{2}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  // Partial service (3s) plus the follow-up job (2s) count as busy time.
  EXPECT_DOUBLE_EQ(server.busy_time(), 5.0);
}

TEST(FifoResource, CancelUnknownIdIsNotFound) {
  sim::Simulation sim;
  const ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  EXPECT_EQ(server.cancel(42), CancelOutcome::kNotFound);
  server.submit_replica(FileSetId(0), 1.0, 5);
  EXPECT_EQ(server.cancel(6), CancelOutcome::kNotFound);
  EXPECT_EQ(server.cancel(5), CancelOutcome::kInService);
}

TEST(FifoResource, OnStartFiresSynchronouslyWhenIdle) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 2.0, hooks);
  bool started = false;
  hooks.on_start = [&](std::uint64_t id) {
    started = true;
    EXPECT_EQ(id, 1u);
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  };
  server.submit_replica(FileSetId(0), 4.0, 1);
  // The server was idle: service began inside submit_replica() itself.
  EXPECT_TRUE(started);
}

TEST(FifoResource, OnStartFiresAtServiceStartWhenQueued) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  SimTime started_at = -1.0;
  hooks.on_start = [&](std::uint64_t) { started_at = sim.now(); };
  server.submit(FileSetId(0), 3.0);  // plain requests do not fire on_start
  server.submit_replica(FileSetId(1), 1.0, 1);
  EXPECT_DOUBLE_EQ(started_at, -1.0);  // still waiting
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(started_at, 3.0);  // when the first job finished
}

TEST(FifoResource, OnIdleFiresOnDrainNotOnFailure) {
  sim::Simulation sim;
  ServerHooks hooks;
  Server server(sim, ServerId(0), 1.0, hooks);
  int idles = 0;
  hooks.on_idle = [&](ServerId) { ++idles; };
  EXPECT_EQ(idles, 0);  // initial idle state does not count

  server.submit(FileSetId(0), 2.0);
  sim.run_to_completion();
  EXPECT_EQ(idles, 1);  // completion drained the queue

  server.submit_replica(FileSetId(1), 5.0, 9);
  EXPECT_EQ(server.cancel(9), CancelOutcome::kInService);
  EXPECT_EQ(idles, 2);  // cancellation drained the queue

  server.submit(FileSetId(2), 5.0);
  server.fail();
  EXPECT_EQ(idles, 2);  // fail() is not an idle transition
  server.recover();
  EXPECT_EQ(idles, 2);
}

TEST(FailureSchedule, RandomFailRecoverIsWellFormed) {
  const auto schedule =
      FailureSchedule::random_fail_recover(1, 5, 4, 4000.0, 100.0);
  ASSERT_EQ(schedule.events().size(), 8u);
  double last = 0.0;
  for (std::size_t i = 0; i < schedule.events().size(); i += 2) {
    const auto& fail = schedule.events()[i];
    const auto& recover = schedule.events()[i + 1];
    EXPECT_EQ(fail.action, MembershipAction::kFail);
    EXPECT_EQ(recover.action, MembershipAction::kRecover);
    EXPECT_EQ(fail.server, recover.server);
    EXPECT_DOUBLE_EQ(recover.when - fail.when, 100.0);
    EXPECT_GE(fail.when, last);
    last = recover.when;
  }
}

TEST(FailureSchedule, AddEnforcesOrder) {
  FailureSchedule schedule;
  schedule.add({10.0, MembershipAction::kFail, ServerId(0), 0.0});
  EXPECT_DEATH(
      schedule.add({5.0, MembershipAction::kRecover, ServerId(0), 0.0}),
      "precondition");
}

}  // namespace
}  // namespace anu::cluster
