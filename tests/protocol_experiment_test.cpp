// End-to-end tests: the queueing data plane driven by the real message
// protocol, and cross-validation against the balancer-level driver.
#include "driver/protocol_experiment.h"

#include <gtest/gtest.h>

#include "driver/balancer_factory.h"
#include "faults/fault_plan.h"
#include "series_hash.h"
#include "workload/synthetic.h"

namespace anu::driver {
namespace {

workload::Workload test_workload(std::uint64_t seed = 42) {
  workload::SyntheticConfig config;
  config.seed = seed;
  config.file_set_count = 30;
  config.request_count = 8'000;
  config.duration = 40.0 * 60.0;
  return make_synthetic_workload(config);
}

ProtocolExperimentConfig base_config() {
  ProtocolExperimentConfig config;
  config.cluster = cluster::paper_cluster();
  return config;
}

TEST(ProtocolExperiment, CompletesAndConverges) {
  const auto w = test_workload();
  const auto result = run_protocol_experiment(base_config(), w);
  EXPECT_EQ(result.requests_issued, w.request_count());
  EXPECT_GT(result.requests_completed, w.request_count() * 7 / 10);
  // The weakest server ends up near-idle, as under the direct driver.
  EXPECT_LT(static_cast<double>(result.served[0]) /
                static_cast<double>(result.requests_completed),
            0.15);
  EXPECT_GT(result.tuning_rounds, 15u);
}

TEST(ProtocolExperiment, MatchesBalancerDriverShape) {
  // The protocol adds messaging latency and transient replica skew; on a
  // LAN config its steady-state latency must land close to the direct
  // driver's (this validates the control_delay abstraction).
  const auto w = test_workload();
  const auto protocol_result = run_protocol_experiment(base_config(), w);

  ExperimentConfig direct;
  direct.cluster = cluster::paper_cluster();
  SystemConfig system;
  system.kind = SystemKind::kAnu;
  auto balancer = make_balancer(system, 5);
  const auto direct_result = run_experiment(direct, w, *balancer);

  EXPECT_LT(protocol_result.steady_state.mean(),
            direct_result.steady_state.mean() * 3.0 + 0.5);
  EXPECT_GT(protocol_result.steady_state.mean(),
            direct_result.steady_state.mean() * 0.3);
}

TEST(ProtocolExperiment, Deterministic) {
  const auto w = test_workload();
  const auto a = run_protocol_experiment(base_config(), w);
  const auto b = run_protocol_experiment(base_config(), w);
  EXPECT_DOUBLE_EQ(a.aggregate.mean(), b.aggregate.mean());
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.total_moved, b.total_moved);
}

TEST(ProtocolExperiment, SurvivesDelegateFailureMidRun) {
  const auto w = test_workload();
  auto config = base_config();
  cluster::FailureSchedule schedule;
  schedule.add({700.0, cluster::MembershipAction::kFail, ServerId(0), 0.0});
  schedule.add({1500.0, cluster::MembershipAction::kRecover, ServerId(0), 0.0});
  config.failures = schedule;
  const auto result = run_protocol_experiment(config, w);
  EXPECT_GT(result.requests_completed, w.request_count() * 6 / 10);
}

TEST(ProtocolExperiment, SlowControlNetworkStillWorks) {
  const auto w = test_workload();
  auto config = base_config();
  config.network.base_delay = 0.25;
  config.protocol.report_grace = 2.0;
  const auto result = run_protocol_experiment(config, w);
  EXPECT_GT(result.requests_completed, w.request_count() * 7 / 10);
  EXPECT_GT(result.tuning_rounds, 15u);
}

TEST(ProtocolExperiment, RecordsMovement) {
  const auto w = test_workload();
  const auto result = run_protocol_experiment(base_config(), w);
  EXPECT_GT(result.total_moved, 0u);
  EXPECT_LE(result.unique_moved, w.file_set_count());
}

/// 16 servers cycling the paper speeds, 512 file sets, 2% message loss,
/// two fail/recover cycles (the first takes down the delegate).
ExperimentResult golden_run(bool use_heartbeats = false) {
  constexpr double kSpeeds[] = {1.0, 3.0, 5.0, 7.0, 9.0};
  ProtocolExperimentConfig config;
  config.protocol.use_heartbeats = use_heartbeats;
  config.cluster.server_speeds.clear();
  double capacity = 0.0;
  for (std::size_t s = 0; s < 16; ++s) {
    config.cluster.server_speeds.push_back(kSpeeds[s % 5]);
    capacity += kSpeeds[s % 5];
  }
  workload::SyntheticConfig synthetic;
  synthetic.seed = 1913;
  synthetic.file_set_count = 512;
  synthetic.request_count = 40'000;
  synthetic.duration = 50.0 * 60.0;
  synthetic.cluster_capacity = capacity;
  synthetic.target_utilization = 0.5;
  const auto w = workload::make_synthetic_workload(synthetic);

  faults::FaultPlanConfig fault_config;
  fault_config.loss = 0.02;
  faults::FaultPlan plan(fault_config);
  config.faults = &plan;
  cluster::FailureSchedule failures;
  failures.add({700.0, cluster::MembershipAction::kFail, ServerId(0), 0.0});
  failures.add({1100.0, cluster::MembershipAction::kRecover, ServerId(0), 0.0});
  failures.add({1800.0, cluster::MembershipAction::kFail, ServerId(9), 0.0});
  failures.add({2300.0, cluster::MembershipAction::kRecover, ServerId(9), 0.0});
  config.failures = failures;
  return run_protocol_experiment(config, w);
}

// Literals captured by running golden_run() at commit 3a19d6de7fbe, where
// every request and every shed check re-hashed file-set names: the
// per-map owner tables must leave every decision of the run unchanged.
TEST(ProtocolExperiment, GoldenRunMatchesPerNameRouting) {
  const ExperimentResult r = golden_run();
  EXPECT_EQ(r.total_moved, 792u);
  const std::vector<std::uint64_t> served{162,  1410, 2587, 2291, 5371, 204,
                                          1801, 2236, 4533, 3442, 507,  1957,
                                          2970, 4272, 5171, 572};
  EXPECT_EQ(r.served, served);
  EXPECT_EQ(r.requests_completed, 39486u);
  const ExperimentResult::ControlPlaneStats& cp = r.control_plane;
  EXPECT_EQ(cp.messages_sent, 2249u);
  EXPECT_EQ(cp.messages_delivered, 2200u);
  EXPECT_EQ(cp.drops_endpoint_down, 0u);
  EXPECT_EQ(cp.drops_injected, 49u);
  EXPECT_EQ(cp.duplicates_injected, 0u);
  EXPECT_EQ(cp.bytes_sent, 180848u);
  EXPECT_EQ(cp.reliable_sent, 704u);
  EXPECT_EQ(cp.retransmits, 33u);
  EXPECT_EQ(cp.acks_received, 704u);
  EXPECT_EQ(cp.duplicates_suppressed, 16u);
  EXPECT_EQ(cp.retries_abandoned, 0u);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.5), 0.66834391756861433);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.99), 74.989420933245512);
  // Latency over time, captured at commit 69e81d210bd7, which kept every
  // completion and reduced the windows at the end of the run.
  ASSERT_EQ(r.latency_over_time.size(), 16u);
  const auto& server0 = r.latency_over_time[0];
  ASSERT_EQ(server0.size(), 10u);
  EXPECT_DOUBLE_EQ(server0.front().time, 300.0);
  EXPECT_DOUBLE_EQ(server0.front().value, 68.987125660301402);
  EXPECT_DOUBLE_EQ(server0.back().time, 3000.0);
  EXPECT_DOUBLE_EQ(server0.back().value, 2.8753930036292559);
  EXPECT_EQ(series_hash(r.latency_over_time), 0xa7275b0ecee48af4ULL);
}

// Literals captured by running this test body at commit b86912d501a6,
// where the delegate built its own tuner inputs from its believed-up set:
// the shared retune must leave every decision of the run unchanged.
TEST(ProtocolExperiment, GoldenRunWithHeartbeats) {
  const ExperimentResult r = golden_run(/*use_heartbeats=*/true);
  EXPECT_EQ(r.total_moved, 775u);
  const std::vector<std::uint64_t> served{180,  1304, 2608, 2714, 5500, 252,
                                          1631, 2097, 4719, 3272, 499,  1783,
                                          2981, 4149, 5222, 548};
  EXPECT_EQ(r.served, served);
  EXPECT_EQ(r.requests_completed, 39459u);
  const ExperimentResult::ControlPlaneStats& cp = r.control_plane;
  EXPECT_EQ(cp.messages_sent, 694724u);
  EXPECT_EQ(cp.messages_delivered, 680532u);
  EXPECT_EQ(cp.drops_endpoint_down, 13526u);
  EXPECT_EQ(cp.drops_injected, 13952u);
  EXPECT_EQ(cp.duplicates_injected, 0u);
  EXPECT_EQ(cp.bytes_sent, 5717004u);
  EXPECT_EQ(cp.reliable_sent, 705u);
  EXPECT_EQ(cp.retransmits, 33u);
  EXPECT_EQ(cp.acks_received, 704u);
  EXPECT_EQ(cp.duplicates_suppressed, 13u);
  EXPECT_EQ(cp.retries_abandoned, 1u);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.5), 0.66834391756861433);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.99), 74.989420933245512);
}

}  // namespace
}  // namespace anu::driver
