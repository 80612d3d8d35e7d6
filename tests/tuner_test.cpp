// Tests for the stateless delegate tuning rule.
#include "core/tuner.h"

#include <gtest/gtest.h>

namespace anu::core {
namespace {

balance::ServerReport report(double latency, std::size_t n) {
  return balance::ServerReport{latency, n};
}

TEST(Tuner, ScalesSlowDownAndFastUp) {
  // Paper §4: scale down above-average servers, up below-average ones.
  // Band disabled: this tests the raw scaling direction.
  TunerConfig config;
  config.dead_band = 0.0;
  std::vector<TunerInput> in(2);
  in[0] = {0.5, report(4.0, 100)};  // slow
  in[1] = {0.5, report(1.0, 100)};  // fast
  const auto out = run_delegate_round(in, config);
  EXPECT_LT(out.weights[0], 0.5);
  EXPECT_GT(out.weights[1], 0.5);
}

TEST(Tuner, DeadBandHoldsNearAverage) {
  TunerConfig config;
  config.dead_band = 1.0;
  std::vector<TunerInput> in(2);
  in[0] = {0.5, report(1.5, 100)};  // within 2x of the average
  in[1] = {0.5, report(1.0, 100)};
  const auto out = run_delegate_round(in, config);
  EXPECT_DOUBLE_EQ(out.weights[0], 0.5);
  EXPECT_DOUBLE_EQ(out.weights[1], 0.5);
}

TEST(Tuner, SystemAverageIsCompletionWeighted) {
  std::vector<TunerInput> in(2);
  in[0] = {0.5, report(4.0, 300)};
  in[1] = {0.5, report(1.0, 100)};
  const auto out = run_delegate_round(in, TunerConfig{});
  EXPECT_DOUBLE_EQ(out.system_average, (4.0 * 300 + 1.0 * 100) / 400.0);
}

TEST(Tuner, EqualLatencyIsFixedPoint) {
  std::vector<TunerInput> in(3);
  for (auto& i : in) i = {1.0 / 3.0, report(2.0, 50)};
  const auto out = run_delegate_round(in, TunerConfig{});
  for (double w : out.weights) EXPECT_NEAR(w, 1.0 / 3.0, 1e-12);
}

TEST(Tuner, GrowthAndShrinkAreCapped) {
  TunerConfig config;
  config.alpha = 1.0;
  config.growth_cap = 2.0;
  config.shrink_cap = 8.0;
  std::vector<TunerInput> in(2);
  in[0] = {0.5, report(1000.0, 100)};  // would shrink by ~500x uncapped
  in[1] = {0.5, report(0.001, 100)};   // would grow by ~1000x uncapped
  const auto out = run_delegate_round(in, config);
  EXPECT_GE(out.weights[0], 0.5 / 8.0 - 1e-12);
  EXPECT_LE(out.weights[1], 0.5 * 2.0 + 1e-12);
}

TEST(Tuner, DampingSlowsAdjustment) {
  std::vector<TunerInput> in(2);
  in[0] = {0.5, report(4.0, 100)};
  in[1] = {0.5, report(1.0, 100)};
  TunerConfig strong;
  strong.alpha = 1.0;
  strong.dead_band = 0.0;
  TunerConfig weak;
  weak.alpha = 0.25;
  weak.dead_band = 0.0;
  const auto fast = run_delegate_round(in, strong);
  const auto slow = run_delegate_round(in, weak);
  EXPECT_LT(fast.weights[0], slow.weights[0]);
  EXPECT_GT(fast.weights[1], slow.weights[1]);
}

TEST(Tuner, IdleServerGrowsModestly) {
  TunerConfig config;
  std::vector<TunerInput> in(2);
  in[0] = {0.4, report(2.0, 100)};
  in[1] = {0.1, report(0.0, 0)};  // idle: caught no file set
  const auto out = run_delegate_round(in, config);
  EXPECT_NEAR(out.weights[1], 0.1 * config.idle_growth, 1e-12);
}

TEST(Tuner, DownServerStaysAtZero) {
  std::vector<TunerInput> in(3);
  in[0] = {0.3, report(2.0, 10)};
  in[1] = {0.0, std::nullopt};  // down
  in[2] = {0.2, report(2.0, 10)};
  const auto out = run_delegate_round(in, TunerConfig{});
  EXPECT_EQ(out.weights[1], 0.0);
}

TEST(Tuner, FloorPreventsVanishingShare) {
  TunerConfig config;
  config.min_share_fraction = 0.01;
  std::vector<TunerInput> in(2);
  in[0] = {1e-9, report(100.0, 100)};  // tiny and slow: floored
  in[1] = {0.5, report(0.1, 100)};
  const auto out = run_delegate_round(in, config);
  const double floor = 0.01 * (1e-9 + 0.5) / 2.0;
  EXPECT_GE(out.weights[0], floor - 1e-18);
}

TEST(Tuner, IncompetentServerFlagged) {
  TunerConfig config;
  config.min_share_fraction = 0.5;  // aggressive floor to force the flag
  std::vector<TunerInput> in(2);
  in[0] = {0.01, report(100.0, 100)};  // slow even on a floor-sized share
  in[1] = {0.99, report(0.1, 100)};
  const auto out = run_delegate_round(in, config);
  ASSERT_EQ(out.incompetent.size(), 1u);
  EXPECT_EQ(out.incompetent[0], 0u);
}

TEST(Tuner, StatelessSameInputSameOutput) {
  // A newly elected delegate must reach the same configuration (§4).
  std::vector<TunerInput> in(3);
  in[0] = {0.2, report(3.0, 40)};
  in[1] = {0.2, report(1.0, 200)};
  in[2] = {0.1, report(0.0, 0)};
  const auto a = run_delegate_round(in, TunerConfig{});
  const auto b = run_delegate_round(in, TunerConfig{});
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.system_average, b.system_average);
  EXPECT_EQ(a.incompetent, b.incompetent);
}

TEST(Tuner, AllIdleRoundKeepsRelativeShares) {
  std::vector<TunerInput> in(2);
  in[0] = {0.3, report(0.0, 0)};
  in[1] = {0.2, report(0.0, 0)};
  const auto out = run_delegate_round(in, TunerConfig{});
  // Both grow by the same factor; normalization makes this a no-op.
  EXPECT_NEAR(out.weights[0] / out.weights[1], 1.5, 1e-12);
}

// Convergence property: iterating the rule on a fixed "latency model" where
// latency is proportional to share/capacity drives shares toward capacity
// proportions.
class TunerConvergenceTest : public ::testing::TestWithParam<double> {};

TEST_P(TunerConvergenceTest, SharesConvergeToCapacityRatios) {
  const double alpha = GetParam();
  TunerConfig config;
  config.alpha = alpha;
  config.dead_band = 0.0;  // exact convergence needs the band off
  const std::vector<double> capacity{1.0, 3.0, 5.0, 7.0, 9.0};
  std::vector<double> share(5, 0.2);
  for (int round = 0; round < 200; ++round) {
    std::vector<TunerInput> in(5);
    for (std::size_t s = 0; s < 5; ++s) {
      // Load proportional to share; latency ~ load / capacity.
      const double latency = share[s] / capacity[s];
      in[s] = {share[s],
               report(latency, static_cast<std::size_t>(share[s] * 1e4) + 1)};
    }
    auto out = run_delegate_round(in, config);
    double sum = 0.0;
    for (double w : out.weights) sum += w;
    for (std::size_t s = 0; s < 5; ++s) share[s] = out.weights[s] / sum;
  }
  const double total_cap = 25.0;
  for (std::size_t s = 0; s < 5; ++s) {
    EXPECT_NEAR(share[s], capacity[s] / total_cap, 0.02)
        << "alpha=" << alpha << " server " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, TunerConvergenceTest,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace anu::core
