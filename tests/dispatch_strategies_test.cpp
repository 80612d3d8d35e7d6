// Unit + end-to-end coverage for the randomized-dispatch baselines:
// JSQ(d), join-idle-queue, and redundancy-d (docs/strategies.md).
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "balance/join_idle_queue.h"
#include "balance/jsq_d.h"
#include "balance/redundancy_d.h"
#include "common/rng.h"
#include "driver/balancer_factory.h"
#include "driver/experiment.h"
#include "workload/synthetic.h"

namespace anu::balance {
namespace {

/// Scriptable cluster state for driving strategies without a simulator.
class FakeClusterView final : public ClusterView {
 public:
  explicit FakeClusterView(std::size_t servers)
      : queues_(servers, 0), speeds_(servers, 1.0), up_(servers, true) {}

  std::size_t server_count() const override { return queues_.size(); }
  bool is_up(ServerId id) const override { return up_[id.value()]; }
  std::size_t queue_length(ServerId id) const override {
    return queues_[id.value()];
  }
  double speed(ServerId id) const override {
    return up_[id.value()] ? speeds_[id.value()] : 0.0;
  }

  std::vector<std::size_t> queues_;
  std::vector<double> speeds_;
  std::vector<bool> up_;
};

std::uint64_t counter(const BalanceCounters& counters, std::string_view name) {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "missing counter: " << name;
  return 0;
}

TEST(JsqD, DEqualsClusterSizeIsFullJsq) {
  // With d = k every dispatch scans all up servers, so the choice must be
  // the global queue minimum (ties: lower id — speeds are equal here).
  constexpr std::size_t kServers = 6;
  FakeClusterView view(kServers);
  JsqDConfig config;
  config.d = kServers;
  JsqDBalancer jsq(config, kServers);
  jsq.bind_cluster(&view);

  Xoshiro256 rng(7);
  for (int round = 0; round < 200; ++round) {
    for (auto& q : view.queues_) q = rng.next_below(10);
    std::size_t expect = 0;
    for (std::size_t s = 1; s < kServers; ++s) {
      if (view.queues_[s] < view.queues_[expect]) expect = s;
    }
    const DispatchDecision decision = jsq.dispatch(FileSetId(0), 1.0);
    ASSERT_EQ(decision.count, 1u);
    EXPECT_EQ(decision.targets[0].value(), expect) << "round " << round;
  }
  EXPECT_EQ(counter(jsq.counters(), "dispatches"), 200u);
  EXPECT_EQ(counter(jsq.counters(), "samples_drawn"), 200u * kServers);
  EXPECT_EQ(counter(jsq.counters(), "full_scans"), 200u);
}

TEST(JsqD, SpeedAwareRanksByDrainTime) {
  // Server 0: 3 queued at speed 9 (drain 0.33); server 1: 1 queued at
  // speed 1 (drain 1.0). Queue-blind JSQ picks 1, drain-time JSQ picks 0.
  FakeClusterView view(2);
  view.queues_ = {3, 1};
  view.speeds_ = {9.0, 1.0};

  JsqDConfig blind;
  blind.d = 2;
  JsqDBalancer jsq_blind(blind, 2);
  jsq_blind.bind_cluster(&view);
  EXPECT_EQ(jsq_blind.dispatch(FileSetId(0), 1.0).targets[0].value(), 1u);

  JsqDConfig aware = blind;
  aware.speed_aware = true;
  JsqDBalancer jsq_aware(aware, 2);
  jsq_aware.bind_cluster(&view);
  EXPECT_EQ(jsq_aware.dispatch(FileSetId(0), 1.0).targets[0].value(), 0u);
}

TEST(JsqD, NeverPicksDownServer) {
  FakeClusterView view(4);
  JsqDConfig config;
  config.d = 2;
  JsqDBalancer jsq(config, 4);
  jsq.bind_cluster(&view);
  view.up_[2] = false;
  (void)jsq.on_server_failed(ServerId(2));
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(jsq.dispatch(FileSetId(0), 1.0).targets[0].value(), 2u);
  }
}

TEST(Jiq, NeverDispatchesToBusyServerWhileTokensExist) {
  constexpr std::size_t kServers = 5;
  FakeClusterView view(kServers);
  JoinIdleQueueBalancer jiq(JiqConfig{}, kServers);
  jiq.bind_cluster(&view);

  // Busy-up some servers; their pooled tokens are now stale. As long as
  // any genuinely idle server holds a token, a busy server must never win.
  Xoshiro256 rng(11);
  for (int round = 0; round < 300; ++round) {
    for (std::size_t s = 0; s < kServers; ++s) {
      view.queues_[s] = rng.next_below(3);  // 0 = idle
    }
    bool any_idle_token = false;
    for (std::size_t s = 0; s < kServers; ++s) {
      if (view.queues_[s] == 0) {
        // server reports its drain
        jiq.on_server_idle(ServerId(static_cast<std::uint32_t>(s)));
        any_idle_token = true;
      }
    }
    const DispatchDecision decision = jiq.dispatch(FileSetId(0), 1.0);
    ASSERT_EQ(decision.count, 1u);
    if (any_idle_token) {
      EXPECT_EQ(view.queues_[decision.targets[0].value()], 0u)
          << "round " << round;
    }
    view.queues_[decision.targets[0].value()]++;  // the dispatch lands
  }
  const auto counters = jiq.counters();
  EXPECT_EQ(counter(counters, "idle_dispatches") +
                counter(counters, "fallback_dispatches"),
            300u);
}

TEST(Jiq, TokenPolicies) {
  // Fresh pool holds every server in id order; speeds 1,3,5,7,9.
  FakeClusterView view(5);
  view.speeds_ = {1.0, 3.0, 5.0, 7.0, 9.0};

  JiqConfig fifo;  // default policy
  JoinIdleQueueBalancer jiq_fifo(fifo, 5);
  jiq_fifo.bind_cluster(&view);
  EXPECT_EQ(jiq_fifo.dispatch(FileSetId(0), 1.0).targets[0].value(), 0u);

  JiqConfig lifo;
  lifo.policy = JiqConfig::TokenPolicy::kLifo;
  JoinIdleQueueBalancer jiq_lifo(lifo, 5);
  jiq_lifo.bind_cluster(&view);
  EXPECT_EQ(jiq_lifo.dispatch(FileSetId(0), 1.0).targets[0].value(), 4u);

  JiqConfig fastest;
  fastest.policy = JiqConfig::TokenPolicy::kFastest;
  JoinIdleQueueBalancer jiq_fastest(fastest, 5);
  jiq_fastest.bind_cluster(&view);
  EXPECT_EQ(jiq_fastest.dispatch(FileSetId(0), 1.0).targets[0].value(), 4u);
}

TEST(Jiq, StaleTokensAreDroppedAndCounted) {
  FakeClusterView view(2);
  JoinIdleQueueBalancer jiq(JiqConfig{}, 2);
  jiq.bind_cluster(&view);
  // Server 0 holds a token but is busy: the token is stale, server 1's
  // token wins.
  view.queues_ = {4, 0};
  EXPECT_EQ(jiq.dispatch(FileSetId(0), 1.0).targets[0].value(), 1u);
  EXPECT_EQ(counter(jiq.counters(), "tokens_stale"), 1u);
  EXPECT_EQ(counter(jiq.counters(), "idle_dispatches"), 1u);
}

TEST(Jiq, EmptyPoolFallsBack) {
  FakeClusterView view(3);
  JoinIdleQueueBalancer jiq(JiqConfig{}, 3);
  jiq.bind_cluster(&view);
  for (auto& q : view.queues_) q = 2;  // everyone busy: all tokens stale
  for (int i = 0; i < 5; ++i) (void)jiq.dispatch(FileSetId(0), 1.0);
  EXPECT_EQ(counter(jiq.counters(), "idle_dispatches"), 0u);
  EXPECT_EQ(counter(jiq.counters(), "fallback_dispatches"), 5u);
  EXPECT_EQ(counter(jiq.counters(), "tokens_stale"), 3u);
}

TEST(Jiq, FailedServerLosesItsToken) {
  FakeClusterView view(2);
  JoinIdleQueueBalancer jiq(JiqConfig{}, 2);
  jiq.bind_cluster(&view);
  view.up_[0] = false;
  (void)jiq.on_server_failed(ServerId(0));
  EXPECT_EQ(jiq.pool_size(), 1u);
  EXPECT_EQ(jiq.dispatch(FileSetId(0), 1.0).targets[0].value(), 1u);
}

TEST(RedundancyD, TargetsAreDistinctAndClamped) {
  FakeClusterView view(5);
  RedundancyDConfig config;
  config.d = 3;
  config.cancel = RedundancyDConfig::CancelMode::kOnStart;
  RedundancyDBalancer red(config, 5);
  red.bind_cluster(&view);

  for (int i = 0; i < 100; ++i) {
    const DispatchDecision decision = red.dispatch(FileSetId(0), 1.0);
    ASSERT_EQ(decision.count, 3u);
    EXPECT_EQ(decision.cancel, DispatchDecision::Cancel::kOnStart);
    for (std::uint32_t a = 0; a < decision.count; ++a) {
      for (std::uint32_t b = a + 1; b < decision.count; ++b) {
        EXPECT_NE(decision.targets[a], decision.targets[b]);
      }
    }
  }

  // Fewer up servers than d: the decision clamps to every up server.
  for (std::uint32_t s = 2; s < 5; ++s) {
    view.up_[s] = false;
    (void)red.on_server_failed(ServerId(s));
  }
  const DispatchDecision clamped = red.dispatch(FileSetId(0), 1.0);
  EXPECT_EQ(clamped.count, 2u);
}

// --- end-to-end: the driver's per-request path over a real cluster ---

workload::Workload small_workload() {
  workload::SyntheticConfig config;
  config.seed = 99;
  config.file_set_count = 20;
  config.request_count = 3000;
  config.duration = 1200.0;
  config.target_utilization = 0.6;
  config.cluster_capacity = 25.0;
  return workload::make_synthetic_workload(config);
}

driver::ExperimentConfig small_experiment() {
  driver::ExperimentConfig config;
  config.cluster.server_speeds = {1.0, 3.0, 5.0, 7.0, 9.0};
  // Generous horizon so every replica race settles before the run ends —
  // the counter identities below are exact only on a drained cluster.
  config.horizon = 20000.0;
  return config;
}

driver::ExperimentResult run_system(driver::SystemKind kind,
                                    driver::SystemConfig system = {}) {
  system.kind = kind;
  const auto workload = small_workload();
  auto balancer = driver::make_balancer(system, 5);
  return driver::run_experiment(small_experiment(), workload, *balancer);
}

TEST(DispatchEndToEnd, JsqCompletesEverythingWithoutMoves) {
  const auto result = run_system(driver::SystemKind::kJsqD);
  EXPECT_EQ(result.requests_completed, 3000u);
  EXPECT_TRUE(result.balance.per_request);
  EXPECT_EQ(result.balance.strategy, "jsq-d");
  EXPECT_EQ(result.total_moved, 0u);
  EXPECT_TRUE(result.shares_over_time.empty());
  EXPECT_EQ(counter(result.balance.counters, "dispatches"), 3000u);
}

TEST(DispatchEndToEnd, JiqAccountsEveryDispatch) {
  const auto result = run_system(driver::SystemKind::kJoinIdleQueue);
  EXPECT_EQ(result.requests_completed, 3000u);
  EXPECT_EQ(result.balance.strategy, "jiq");
  EXPECT_EQ(counter(result.balance.counters, "idle_dispatches") +
                counter(result.balance.counters, "fallback_dispatches"),
            3000u);
}

TEST(DispatchEndToEnd, RedundancyCancelOnCompleteSettlesEveryRace) {
  driver::SystemConfig system;
  system.red.d = 3;
  const auto result = run_system(driver::SystemKind::kRedundancyD, system);
  EXPECT_EQ(result.requests_completed, 3000u);
  const auto& c = result.balance.counters;
  const std::uint64_t submitted = counter(c, "replicas_submitted");
  const std::uint64_t queued = counter(c, "replicas_cancelled_queued");
  const std::uint64_t in_service = counter(c, "replicas_cancelled_in_service");
  // Exactly one winner per request; with cancel-on-complete nothing is
  // elided at submit time, so every race submits all 3 replicas and
  // cancels d-1 = 2 of them.
  EXPECT_EQ(submitted, 3u * 3000u);
  EXPECT_EQ(counter(c, "replicas_elided"), 0u);
  EXPECT_EQ(queued + in_service, submitted - 3000u);
  EXPECT_EQ(counter(c, "replicas_rescued"), 0u);
}

TEST(DispatchEndToEnd, RedundancyCancelOnStartWastesNoService) {
  driver::SystemConfig system;
  system.red.d = 3;
  system.red.cancel = RedundancyDConfig::CancelMode::kOnStart;
  const auto result = run_system(driver::SystemKind::kRedundancyD, system);
  EXPECT_EQ(result.requests_completed, 3000u);
  const auto& c = result.balance.counters;
  // First replica to enter service kills its siblings before they start;
  // no service capacity is ever spent twice on one request.
  EXPECT_EQ(counter(c, "replicas_cancelled_in_service"), 0u);
  // Replicas aimed at an idle server start synchronously and elide the
  // rest of their group's submissions.
  EXPECT_GT(counter(c, "replicas_elided"), 0u);
  const std::uint64_t submitted = counter(c, "replicas_submitted");
  EXPECT_EQ(counter(c, "replicas_cancelled_queued"), submitted - 3000u);
}

TEST(DispatchEndToEnd, SurvivesServerFailure) {
  // A dispatch strategy must route around a dead server: requests queued
  // there are rescued, later arrivals avoid it.
  for (const driver::SystemKind kind :
       {driver::SystemKind::kJsqD, driver::SystemKind::kJoinIdleQueue,
        driver::SystemKind::kRedundancyD}) {
    driver::SystemConfig system;
    system.kind = kind;
    const auto workload = small_workload();
    auto config = small_experiment();
    config.failures.add(
        {300.0, cluster::MembershipAction::kFail, ServerId(4), 0.0});
    auto balancer = driver::make_balancer(system, 5);
    const auto result = driver::run_experiment(config, workload, *balancer);
    EXPECT_GT(result.requests_completed, 2990u) << driver::system_label(kind);
  }
}

// --- golden runs: the replica race pinned value for value ---

driver::ExperimentResult race(std::uint32_t d,
                              RedundancyDConfig::CancelMode mode,
                              const cluster::FailureSchedule& failures = {}) {
  driver::SystemConfig system;
  system.kind = driver::SystemKind::kRedundancyD;
  system.red.d = d;
  system.red.cancel = mode;
  auto config = small_experiment();
  config.failures = failures;
  auto balancer = driver::make_balancer(system, 5);
  return driver::run_experiment(config, small_workload(), *balancer);
}

// The literals below were captured by running these test bodies at commit
// 6c2f85adde4f, whose replica manager kept its groups in hash maps and
// reported starts through per-job callbacks: the group table must leave
// every decision of the race unchanged.
TEST(RedundancyGolden, TwoReplicasCancelOnComplete) {
  const auto r = race(2, RedundancyDConfig::CancelMode::kOnComplete);
  const auto& c = r.balance.counters;
  EXPECT_EQ(r.requests_completed, 3000u);
  EXPECT_EQ(r.served, (std::vector<std::uint64_t>{0, 367, 626, 901, 1106}));
  EXPECT_EQ(counter(c, "replicas_submitted"), 6000u);
  EXPECT_EQ(counter(c, "replicas_cancelled_queued"), 1344u);
  EXPECT_EQ(counter(c, "replicas_cancelled_in_service"), 1656u);
  EXPECT_EQ(counter(c, "replicas_elided"), 0u);
  EXPECT_EQ(counter(c, "replicas_rescued"), 0u);
  EXPECT_EQ(r.queue.executed, 6147u);
  EXPECT_EQ(r.queue.cancelled_skipped, 1656u);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.5), 1.3335214321633229);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.99), 7.4989420933245521);
}

TEST(RedundancyGolden, ThreeReplicasCancelOnStart) {
  const auto r = race(3, RedundancyDConfig::CancelMode::kOnStart);
  const auto& c = r.balance.counters;
  EXPECT_EQ(r.requests_completed, 3000u);
  EXPECT_EQ(r.served, (std::vector<std::uint64_t>{169, 459, 649, 816, 907}));
  EXPECT_EQ(counter(c, "replicas_submitted"), 6233u);
  EXPECT_EQ(counter(c, "replicas_cancelled_queued"), 3233u);
  EXPECT_EQ(counter(c, "replicas_cancelled_in_service"), 0u);
  EXPECT_EQ(counter(c, "replicas_elided"), 2767u);
  EXPECT_EQ(counter(c, "replicas_rescued"), 0u);
  EXPECT_EQ(r.queue.executed, 6147u);
  EXPECT_EQ(r.queue.cancelled_skipped, 0u);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.5), 1.0592537251772889);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.99), 7.4989420933245521);
}

TEST(RedundancyGolden, TwoReplicasRescuedFromFailures) {
  // Failures take one server down at a time, so only cancel-on-start (one
  // live replica once a sibling starts) leaves a race with no survivor.
  const auto failures =
      cluster::FailureSchedule::random_fail_recover(1, 5, 8, 1200.0, 60.0);
  const auto r = race(2, RedundancyDConfig::CancelMode::kOnStart, failures);
  const auto& c = r.balance.counters;
  EXPECT_EQ(r.requests_completed, 3000u);
  EXPECT_EQ(r.served, (std::vector<std::uint64_t>{172, 522, 644, 843, 819}));
  EXPECT_EQ(counter(c, "replicas_submitted"), 5207u);
  EXPECT_EQ(counter(c, "replicas_cancelled_queued"), 2201u);
  EXPECT_EQ(counter(c, "replicas_cancelled_in_service"), 0u);
  EXPECT_EQ(counter(c, "replicas_elided"), 803u);
  EXPECT_EQ(counter(c, "replicas_rescued"), 5u);
  EXPECT_EQ(r.queue.executed, 6163u);
  EXPECT_EQ(r.queue.cancelled_skipped, 5u);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.5), 1.3335214321633229);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.99), 13.335214321633227);
}

}  // namespace
}  // namespace anu::balance
