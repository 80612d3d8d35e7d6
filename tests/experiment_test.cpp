// Integration tests: full simulated runs of all four load-management
// systems on the paper's cluster, scaled down for test runtime.
#include <gtest/gtest.h>

#include <memory>

#include "driver/balancer_factory.h"
#include "driver/experiment.h"
#include "series_hash.h"
#include "workload/synthetic.h"

namespace anu::driver {
namespace {

workload::Workload small_workload(std::uint64_t seed = 42) {
  workload::SyntheticConfig config;
  config.seed = seed;
  config.file_set_count = 30;
  config.request_count = 8'000;
  config.duration = 40.0 * 60.0;  // 40 minutes
  return make_synthetic_workload(config);
}

ExperimentConfig base_config() {
  ExperimentConfig config;
  config.cluster = cluster::paper_cluster();  // speeds 1,3,5,7,9
  config.tuning_interval = 120.0;
  return config;
}

ExperimentResult run_system(SystemKind kind, const workload::Workload& w,
                            const ExperimentConfig& config) {
  SystemConfig system;
  system.kind = kind;
  auto balancer = make_balancer(system, config.cluster.server_speeds.size());
  return run_experiment(config, w, *balancer);
}

TEST(Experiment, AllSystemsCompleteRequests) {
  const auto w = small_workload();
  const auto config = base_config();
  for (SystemKind kind : kAllSystems) {
    const auto result = run_system(kind, w, config);
    EXPECT_EQ(result.requests_issued, w.request_count())
        << system_label(kind);
    EXPECT_GT(result.requests_completed, w.request_count() * 7 / 10)
        << system_label(kind);
    EXPECT_LE(result.requests_completed, result.requests_issued);
  }
}

TEST(Experiment, DeterministicRuns) {
  const auto w = small_workload();
  const auto config = base_config();
  const auto a = run_system(SystemKind::kAnu, w, config);
  const auto b = run_system(SystemKind::kAnu, w, config);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_DOUBLE_EQ(a.aggregate.mean(), b.aggregate.mean());
  EXPECT_EQ(a.total_moved, b.total_moved);
}

TEST(Experiment, AnuBeatsSimpleRandomization) {
  // The headline comparison (Figs. 5/6): ANU adapts to heterogeneity,
  // simple randomization cannot.
  const auto w = small_workload();
  const auto config = base_config();
  const auto anu = run_system(SystemKind::kAnu, w, config);
  const auto simple = run_system(SystemKind::kSimpleRandom, w, config);
  EXPECT_LT(anu.aggregate.mean(), simple.aggregate.mean());
}

TEST(Experiment, PrescientIsTheUpperBound) {
  const auto w = small_workload();
  const auto config = base_config();
  const auto prescient = run_system(SystemKind::kDynPrescient, w, config);
  const auto anu = run_system(SystemKind::kAnu, w, config);
  const auto simple = run_system(SystemKind::kSimpleRandom, w, config);
  EXPECT_LT(prescient.aggregate.mean(), simple.aggregate.mean());
  // ANU approaches the oracle but cannot beat it by much; allow slack for
  // the pre-convergence phase on this short run.
  EXPECT_LT(prescient.aggregate.mean(), anu.aggregate.mean() * 1.05);
}

TEST(Experiment, AnuConvergesCloseToPrescient) {
  // §5.2.2: "The latency of ANU randomization is fairly close to that of
  // dynamic prescient." Compare steady-state (second-half) latencies.
  const auto w = small_workload();
  const auto config = base_config();
  const auto anu = run_system(SystemKind::kAnu, w, config);
  const auto prescient = run_system(SystemKind::kDynPrescient, w, config);
  EXPECT_LT(anu.steady_state.mean(), prescient.steady_state.mean() * 3.0);
}

TEST(Experiment, SimpleRandomWeakestServerDegrades) {
  // Fig. 5 (simple randomization): "The weakest server's performance keeps
  // degrading during the simulation."
  const auto w = small_workload();
  const auto config = base_config();
  const auto result = run_system(SystemKind::kSimpleRandom, w, config);
  const auto& weakest = result.latency_over_time[0];  // server 0, speed 1
  ASSERT_GE(weakest.size(), 4u);
  // Latency in the last quarter far above the first quarter.
  EXPECT_GT(weakest[weakest.size() - 1].value,
            weakest[weakest.size() / 4].value * 2.0);
}

TEST(Experiment, AnuShedsLoadFromWeakestServer) {
  // §5.2.2: the weakest server ends up near-idle; it must not dominate.
  const auto w = small_workload();
  const auto config = base_config();
  const auto result = run_system(SystemKind::kAnu, w, config);
  const double share_of_weakest =
      static_cast<double>(result.served[0]) /
      static_cast<double>(result.requests_completed);
  EXPECT_LT(share_of_weakest, 0.10);
}

TEST(Experiment, AnuMovementConcentratedEarly) {
  // Fig. 7: active movement in the first rounds, little afterwards.
  const auto w = small_workload();
  const auto config = base_config();
  const auto result = run_system(SystemKind::kAnu, w, config);
  ASSERT_GE(result.movement.size(), 8u);
  std::size_t early = 0, late = 0;
  const std::size_t half = result.movement.size() / 2;
  for (std::size_t i = 0; i < result.movement.size(); ++i) {
    (i < half ? early : late) += result.movement[i].moved;
  }
  EXPECT_GE(early, late);
  EXPECT_GT(result.total_moved, 0u);
}

TEST(Experiment, MoreVirtualProcessorsHelp) {
  // The VP granularity tradeoff (Fig. 8) only bites when the cluster runs
  // hot enough that a lumpy VP->server mapping overloads someone.
  workload::SyntheticConfig wc;
  wc.seed = 42;
  wc.file_set_count = 30;
  wc.request_count = 8'000;
  wc.duration = 40.0 * 60.0;
  wc.target_utilization = 0.8;
  const auto w = make_synthetic_workload(wc);
  const auto config = base_config();
  SystemConfig coarse;
  coarse.kind = SystemKind::kVirtualProcessor;
  coarse.vp.vp_per_server = 1;
  SystemConfig fine = coarse;
  fine.vp.vp_per_server = 10;
  auto coarse_bal = make_balancer(coarse, 5);
  auto fine_bal = make_balancer(fine, 5);
  const auto coarse_result = run_experiment(config, w, *coarse_bal);
  const auto fine_result = run_experiment(config, w, *fine_bal);
  EXPECT_LT(fine_result.aggregate.mean(), coarse_result.aggregate.mean());
  EXPECT_GT(fine_bal->shared_state_bytes(), coarse_bal->shared_state_bytes());
}

TEST(Experiment, SharedStateOrdering) {
  // §5.4: ANU's replicated state is smaller than an equivalently-performing
  // VP system's table.
  const auto w = small_workload();
  const auto config = base_config();
  SystemConfig vp;
  vp.kind = SystemKind::kVirtualProcessor;
  vp.vp.vp_per_server = 6;  // 30 VPs: the paper's parity point
  auto vp_bal = make_balancer(vp, 5);
  SystemConfig anu;
  anu.kind = SystemKind::kAnu;
  auto anu_bal = make_balancer(anu, 5);
  (void)run_experiment(config, w, *vp_bal);
  (void)run_experiment(config, w, *anu_bal);
  EXPECT_LT(anu_bal->shared_state_bytes(), vp_bal->shared_state_bytes());
}

TEST(Experiment, FailureAndRecoveryMidRun) {
  const auto w = small_workload();
  auto config = base_config();
  cluster::FailureSchedule schedule;
  schedule.add({600.0, cluster::MembershipAction::kFail, ServerId(4), 0.0});
  schedule.add({1200.0, cluster::MembershipAction::kRecover, ServerId(4), 0.0});
  config.failures = schedule;
  for (SystemKind kind : kAllSystems) {
    const auto result = run_system(kind, w, config);
    // No request may be lost: everything issued either completed or sits in
    // a queue at the horizon; flushed requests were re-dispatched.
    EXPECT_GT(result.requests_completed, w.request_count() * 6 / 10)
        << system_label(kind);
  }
}

TEST(Experiment, ServerAdditionMidRun) {
  const auto w = small_workload();
  auto config = base_config();
  cluster::FailureSchedule schedule;
  schedule.add({600.0, cluster::MembershipAction::kAdd, ServerId(), 9.0});
  config.failures = schedule;
  const auto result = run_system(SystemKind::kAnu, w, config);
  EXPECT_EQ(result.server_count, 6u);
  EXPECT_GT(result.served[5], 0u);  // the newcomer ends up serving load
}

TEST(Experiment, UtilizationTracksSpeedUnderAnu) {
  // Once balanced, fast servers should be busier than the weakest one.
  const auto w = small_workload();
  const auto config = base_config();
  const auto result = run_system(SystemKind::kAnu, w, config);
  EXPECT_GT(result.utilization[4], result.utilization[0]);
}

TEST(Experiment, MoveWarmupPenaltyIncursCost) {
  // Prescient placement ignores latency feedback, so its move pattern is
  // identical with and without the cold-cache penalty — the penalized run
  // strictly adds work and must come out slower. (ANU's own decisions react
  // to the penalty, so no such monotonicity holds for it.)
  const auto w = small_workload();
  auto config = base_config();
  const auto cold = run_system(SystemKind::kDynPrescient, w, config);
  config.move_warmup_penalty = 5.0;  // heavy cold-cache cost
  const auto warm = run_system(SystemKind::kDynPrescient, w, config);
  EXPECT_GT(warm.aggregate.mean(), cold.aggregate.mean());
}

TEST(Experiment, OracleLookaheadCanBeDisabled) {
  const auto w = small_workload();
  auto config = base_config();
  config.oracle_lookahead = false;
  const auto result = run_system(SystemKind::kDynPrescient, w, config);
  EXPECT_GT(result.requests_completed, 0u);
}


TEST(Experiment, TwoChoicePlacementRunsEndToEnd) {
  const auto w = small_workload();
  const auto config = base_config();
  SystemConfig system;
  system.kind = SystemKind::kAnu;
  system.anu.placement_choices = 2;
  auto balancer = make_balancer(system, 5);
  const auto result = run_experiment(config, w, *balancer);
  EXPECT_GT(result.requests_completed, w.request_count() * 7 / 10);
  // Choice bits count toward the replicated state.
  EXPECT_EQ(result.shared_state_bytes,
            16u * 12 + 8 + (w.file_set_count() + 7) / 8);
}

TEST(Experiment, CacheModelEndToEnd) {
  const auto w = small_workload();
  auto config = base_config();
  const auto cold = run_system(SystemKind::kAnu, w, config);
  config.cluster.cache.enabled = true;
  config.cluster.cache.cold_penalty_factor = 2.0;
  config.cluster.cache.warmup_requests = 10;
  const auto warm = run_system(SystemKind::kAnu, w, config);
  // Warm-up work strictly adds demand somewhere; the run still completes.
  EXPECT_GT(warm.requests_completed, w.request_count() * 7 / 10);
  EXPECT_GT(warm.aggregate.mean(), cold.aggregate.mean() * 0.9);
}

TEST(Experiment, RandomFailureScheduleSurvivesAllSystems) {
  const auto w = small_workload();
  auto config = base_config();
  config.failures = cluster::FailureSchedule::random_fail_recover(
      /*seed=*/5, /*server_count=*/5, /*rounds=*/3, /*horizon=*/w.span(),
      /*downtime=*/120.0);
  for (SystemKind kind : kAllSystems) {
    const auto result = run_system(kind, w, config);
    EXPECT_GT(result.requests_completed, w.request_count() / 2)
        << system_label(kind);
  }
}

TEST(Experiment, LatencyQuantilesAreOrdered) {
  const auto w = small_workload();
  const auto config = base_config();
  const auto result = run_system(SystemKind::kAnu, w, config);
  const double p50 = result.latency_histogram.quantile(0.50);
  const double p95 = result.latency_histogram.quantile(0.95);
  const double p99 = result.latency_histogram.quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_EQ(result.latency_histogram.count(), result.requests_completed);
}

TEST(Experiment, MovementTrackerUniqueMetrics) {
  const auto w = small_workload();
  const auto config = base_config();
  const auto result = run_system(SystemKind::kAnu, w, config);
  EXPECT_LE(result.unique_moved, w.file_set_count());
  EXPECT_LE(result.unique_moved, result.total_moved);
  EXPECT_LE(result.percent_unique_workload_moved, 100.0 + 1e-9);
}

TEST(Experiment, VpMappingPolicyComparison) {
  // Both policies must run; the capacity-proportional default cannot leave
  // a fast server empty while the weak one has multiple VPs.
  workload::SyntheticConfig wc;
  wc.seed = 9;
  wc.file_set_count = 30;
  wc.request_count = 6'000;
  wc.duration = 30.0 * 60.0;
  wc.target_utilization = 0.7;
  const auto w = make_synthetic_workload(wc);
  const auto config = base_config();
  for (auto policy : {balance::VpMappingPolicy::kCapacityProportional,
                      balance::VpMappingPolicy::kMinLatency}) {
    SystemConfig system;
    system.kind = SystemKind::kVirtualProcessor;
    system.vp.policy = policy;
    auto balancer = make_balancer(system, 5);
    const auto result = run_experiment(config, w, *balancer);
    EXPECT_GT(result.requests_completed, w.request_count() * 7 / 10);
  }
}


TEST(Experiment, ControlDelayRunsAndConverges) {
  const auto w = small_workload();
  auto config = base_config();
  config.control_delay = 5.0;  // protocol round-trip + handoff
  const auto delayed = run_system(SystemKind::kAnu, w, config);
  config.control_delay = 0.0;
  const auto instant = run_system(SystemKind::kAnu, w, config);
  EXPECT_GT(delayed.requests_completed, w.request_count() * 7 / 10);
  // A 5-second pipeline on a 120-second interval barely matters.
  EXPECT_LT(delayed.steady_state.mean(), instant.steady_state.mean() * 3.0);
}

TEST(Experiment, ControlDelayWithFailureMidCommit) {
  // Failure lands between a tuning round and its delayed commit; routing
  // must never point at the dead server.
  const auto w = small_workload();
  auto config = base_config();
  config.control_delay = 30.0;
  cluster::FailureSchedule schedule;
  // Fail just after a tuning round fires (rounds at 120, 240, ...).
  schedule.add({125.0, cluster::MembershipAction::kFail, ServerId(4), 0.0});
  schedule.add({1000.0, cluster::MembershipAction::kRecover, ServerId(4), 0.0});
  config.failures = schedule;
  for (SystemKind kind : kAllSystems) {
    const auto result = run_system(kind, w, config);
    EXPECT_GT(result.requests_completed, w.request_count() / 2)
        << system_label(kind);
  }
}

TEST(Experiment, ControlDelayDeterministic) {
  const auto w = small_workload();
  auto config = base_config();
  config.control_delay = 10.0;
  const auto a = run_system(SystemKind::kAnu, w, config);
  const auto b = run_system(SystemKind::kAnu, w, config);
  EXPECT_DOUBLE_EQ(a.aggregate.mean(), b.aggregate.mean());
  EXPECT_EQ(a.requests_completed, b.requests_completed);
}


TEST(Experiment, ShareSamplesTrackAdaptation) {
  const auto w = small_workload();
  const auto config = base_config();
  const auto result = run_system(SystemKind::kAnu, w, config);
  ASSERT_GE(result.shares_over_time.size(), 10u);
  // Every sample sums to ~1 and has one entry per server.
  for (const auto& sample : result.shares_over_time) {
    ASSERT_EQ(sample.share.size(), 5u);
    double sum = 0.0;
    for (double s : sample.share) sum += s;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  // Adaptation: by the end the fastest server carries more assigned weight
  // than the slowest, and more than it started with.
  const auto& first = result.shares_over_time.front();
  const auto& last = result.shares_over_time.back();
  EXPECT_GT(last.share[4], last.share[0]);
  EXPECT_GT(last.share[4], first.share[0] * 0.9);
}

TEST(Experiment, StaticSystemsHaveFlatShares) {
  const auto w = small_workload();
  const auto config = base_config();
  const auto result = run_system(SystemKind::kSimpleRandom, w, config);
  ASSERT_GE(result.shares_over_time.size(), 2u);
  EXPECT_EQ(result.shares_over_time.front().share,
            result.shares_over_time.back().share);
}

/// ANU on small_workload() through the fastest server failing, recovering,
/// and a new fast server joining.
ExperimentResult anu_churn_run(std::uint32_t placement_choices) {
  auto config = base_config();
  cluster::FailureSchedule schedule;
  schedule.add({600.0, cluster::MembershipAction::kFail, ServerId(4), 0.0});
  schedule.add({1200.0, cluster::MembershipAction::kRecover, ServerId(4), 0.0});
  schedule.add({1800.0, cluster::MembershipAction::kAdd, ServerId(), 9.0});
  config.failures = schedule;
  SystemConfig system;
  system.kind = SystemKind::kAnu;
  system.anu.placement_choices = placement_choices;
  auto balancer = make_balancer(system, config.cluster.server_speeds.size());
  return run_experiment(config, small_workload(), *balancer);
}

// The literals below were captured by running these test bodies at commit
// b86912d501a6, where AnuBalancer kept its own probe loop and retune
// pipeline: the shared placement functions must leave every decision of
// the run unchanged.
TEST(ExperimentGolden, AnuSingleChoiceThroughMembershipChurn) {
  const ExperimentResult r = anu_churn_run(1);
  EXPECT_EQ(r.total_moved, 84u);
  EXPECT_EQ(r.served,
            (std::vector<std::uint64_t>{206, 846, 1884, 2857, 1740, 430}));
  EXPECT_EQ(r.tuning_rounds, 19u);
  EXPECT_DOUBLE_EQ(r.percent_workload_moved, 286.28361721697325);
  EXPECT_EQ(r.shared_state_bytes, 200u);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.5), 1.1885022274370178);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.99), 84.139514164519568);
  // Every server's latency over time, the added server included. Captured
  // at commit 69e81d210bd7, which kept every completion and reduced the
  // windows at the end of the run.
  ASSERT_EQ(r.latency_over_time.size(), 6u);
  const auto& server0 = r.latency_over_time[0];
  ASSERT_EQ(server0.size(), 8u);
  EXPECT_DOUBLE_EQ(server0.front().time, 300.0);
  EXPECT_DOUBLE_EQ(server0.front().value, 35.558553785909481);
  EXPECT_DOUBLE_EQ(server0.back().time, 2400.0);
  EXPECT_DOUBLE_EQ(server0.back().value, 11.289118755724349);
  EXPECT_EQ(series_hash(r.latency_over_time), 0x15b0f79525c3a549ULL);
}

TEST(ExperimentGolden, AnuTwoChoicesThroughMembershipChurn) {
  const ExperimentResult r = anu_churn_run(2);
  EXPECT_EQ(r.total_moved, 214u);
  EXPECT_EQ(r.served,
            (std::vector<std::uint64_t>{203, 990, 1935, 2757, 1696, 384}));
  EXPECT_EQ(r.tuning_rounds, 19u);
  EXPECT_DOUBLE_EQ(r.percent_workload_moved, 677.65355589609271);
  EXPECT_EQ(r.shared_state_bytes, 204u);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.5), 1.1885022274370178);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.99), 53.088444423098849);
}

}  // namespace
}  // namespace anu::driver
