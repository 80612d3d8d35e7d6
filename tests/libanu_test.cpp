// Tests for the public libanu facade (include/anu/anu.h): the embeddable
// balancer must behave like the in-repo decision core it wraps — equal
// shares at start, damped convergence away from slow servers, region
// reclamation on failure, deterministic routing — all through the installed
// header alone (this file deliberately includes no internal headers).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "anu/anu.h"

namespace {

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

TEST(Libanu, StartsWithEqualSharesSummingToHalf) {
  anu::Balancer balancer(4);
  EXPECT_EQ(balancer.server_count(), 4u);
  EXPECT_EQ(balancer.version(), 0u);
  const auto shares = balancer.shares();
  ASSERT_EQ(shares.size(), 4u);
  EXPECT_NEAR(sum(shares), 0.5, 1e-12);
  for (const double share : shares) EXPECT_NEAR(share, 0.125, 1e-12);
}

TEST(Libanu, RoutingIsDeterministicAcrossInstances) {
  anu::Balancer a(8), b(8);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "object/" + std::to_string(i);
    const std::uint32_t owner = a.route(key);
    EXPECT_LT(owner, 8u);
    EXPECT_EQ(owner, b.route(key)) << key;
    EXPECT_EQ(owner, a.route(key)) << key;  // and stable on repeat
  }
}

TEST(Libanu, DifferentHashSeedsRouteDifferently) {
  anu::BalancerConfig other;
  other.hash_seed = 0x1234;
  anu::Balancer a(8), b(8, other);
  int differ = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "object/" + std::to_string(i);
    if (a.route(key) != b.route(key)) ++differ;
  }
  EXPECT_GT(differ, 50);  // seeds genuinely change the mapping
}

TEST(Libanu, SymmetricReportsLeaveSharesAlone) {
  anu::Balancer balancer(3);
  for (std::uint32_t s = 0; s < 3; ++s) {
    balancer.record_latency(s, 0.100, 1000);
  }
  const auto result = balancer.retune();
  EXPECT_EQ(result.version, 1u);
  EXPECT_FALSE(result.changed);
  EXPECT_NEAR(result.system_average, 0.100, 1e-9);
  EXPECT_TRUE(result.incompetent.empty());
  for (const double share : balancer.shares()) EXPECT_NEAR(share, 0.5 / 3, 1e-12);
}

TEST(Libanu, SlowServerShedsLoadOverRounds) {
  anu::Balancer balancer(3);
  for (int round = 0; round < 6; ++round) {
    const auto shares = balancer.shares();
    // Latency proportional to share times slowness: server 0 is 10x slower.
    for (std::uint32_t s = 0; s < 3; ++s) {
      const double slow = s == 0 ? 10.0 : 1.0;
      balancer.record_latency(s, shares[s] * slow + 1e-6,
                              static_cast<std::uint64_t>(shares[s] * 1e4) + 1);
    }
    const auto result = balancer.retune();
    EXPECT_EQ(result.version, static_cast<std::uint64_t>(round + 1));
  }
  const auto shares = balancer.shares();
  EXPECT_LT(shares[0], shares[1]);
  EXPECT_LT(shares[0], shares[2]);
  EXPECT_NEAR(sum(shares), 0.5, 1e-9);
  EXPECT_EQ(balancer.version(), 6u);
}

TEST(Libanu, PersistentlySlowServerIsFlaggedIncompetent) {
  anu::Balancer balancer(3);
  anu::RetuneResult last;
  for (int round = 0; round < 12; ++round) {
    const auto shares = balancer.shares();
    for (std::uint32_t s = 0; s < 3; ++s) {
      // Server 0 is catastrophically slow regardless of its share: the
      // tuner shrinks it to the floor and must then raise the paper's
      // "incompetent component" signal instead of shrinking further.
      const double latency = s == 0 ? 100.0 : shares[s] + 1e-6;
      balancer.record_latency(s, latency,
                              static_cast<std::uint64_t>(shares[s] * 1e4) + 1);
    }
    last = balancer.retune();
  }
  EXPECT_EQ(std::count(last.incompetent.begin(), last.incompetent.end(), 0u),
            1);
}

TEST(Libanu, DownServerIsReclaimedAndRegrows) {
  anu::Balancer balancer(4);
  balancer.set_server_up(2, false);
  EXPECT_FALSE(balancer.server_up(2));
  auto result = balancer.retune();
  EXPECT_TRUE(result.changed);
  auto shares = balancer.shares();
  EXPECT_EQ(shares[2], 0.0);
  EXPECT_NEAR(sum(shares), 0.5, 1e-9);
  for (int i = 0; i < 500; ++i) {
    EXPECT_NE(balancer.route("k/" + std::to_string(i)), 2u);
  }

  balancer.set_server_up(2, true);
  EXPECT_TRUE(balancer.server_up(2));
  result = balancer.retune();
  EXPECT_TRUE(result.changed);
  shares = balancer.shares();
  EXPECT_GT(shares[2], 0.0);
  EXPECT_NEAR(sum(shares), 0.5, 1e-9);
}

TEST(Libanu, IdleServersKeepTheirShares) {
  anu::Balancer balancer(3);
  // Nobody reported anything: everyone reads as idle, growth is uniform,
  // normalization cancels it — the map must not move.
  const auto result = balancer.retune();
  EXPECT_FALSE(result.changed);
  EXPECT_EQ(result.system_average, 0.0);
  for (const double share : balancer.shares()) {
    EXPECT_NEAR(share, 0.5 / 3, 1e-12);
  }
}

TEST(Libanu, ReportsClearAfterRetune) {
  anu::Balancer balancer(2);
  balancer.record_latency(0, 5.0, 100);
  balancer.record_latency(1, 0.001, 100);
  const auto first = balancer.retune();
  EXPECT_TRUE(first.changed);
  EXPECT_GT(first.system_average, 0.0);
  // The next round has no reports: everyone reads as idle — proving the
  // previous round's reports were consumed, not reused. (A stale report
  // would reproduce round 1's system average and keep shrinking server 0.)
  const auto before = balancer.shares();
  const auto second = balancer.retune();
  EXPECT_EQ(second.version, 2u);
  EXPECT_EQ(second.system_average, 0.0);
  const auto after = balancer.shares();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t s = 0; s < after.size(); ++s) {
    EXPECT_NEAR(after[s], before[s], 1e-9);
  }
}

TEST(Libanu, MoveTransfersTheCluster) {
  anu::Balancer original(4);
  original.record_latency(0, 1.0, 10);
  original.retune();
  const auto before = original.shares();
  anu::Balancer moved(std::move(original));
  EXPECT_EQ(moved.server_count(), 4u);
  EXPECT_EQ(moved.version(), 1u);
  EXPECT_EQ(moved.shares(), before);
  moved.record_latency(1, 1.0, 10);
  EXPECT_EQ(moved.retune().version, 2u);
}

// The literals below were captured by running this test body at commit
// b86912d501a6, where Balancer::retune built its own tuner inputs: the
// shared retune must leave every decision unchanged.
TEST(Libanu, ScriptedRoundsMatchPinnedDecisions) {
  anu::Balancer balancer(5);
  std::vector<anu::RetuneResult> results;
  std::vector<double> shares_while_down;
  for (std::uint32_t round = 0; round < 16; ++round) {
    if (round == 4) balancer.set_server_up(3, false);
    if (round == 8) balancer.set_server_up(3, true);
    for (std::uint32_t s = 0; s < 5; ++s) {
      if (!balancer.server_up(s)) continue;
      if (round == 0 || round >= 14) {
        balancer.record_latency(s, 0.1, 50);
      } else if ((round + s) % 4 != 0) {  // else no report: reads as idle
        balancer.record_latency(
            s, s == 0 ? 50.0 : 0.05 * (s + 1) * (1 + round % 3), 20 + 10 * s);
      }
    }
    results.push_back(balancer.retune());
    if (round == 7) shares_while_down = balancer.shares();
  }
  const std::vector<std::vector<std::uint32_t>> incompetent{
      {}, {}, {}, {0}, {}, {0}, {0}, {0}, {3}, {0}, {0}, {0}, {3}, {0}, {}, {}};
  ASSERT_EQ(results.size(), incompetent.size());
  for (std::size_t round = 0; round < results.size(); ++round) {
    EXPECT_EQ(results[round].version, round + 1);
    EXPECT_EQ(results[round].changed, round != 0) << "round " << round;
    EXPECT_EQ(results[round].incompetent, incompetent[round])
        << "round " << round;
  }
  EXPECT_EQ(shares_while_down,
            (std::vector<double>{0.0083333482864664677, 0.14047618620386673,
                                 0.14047618620386665, 0.0,
                                 0.21071427930580014}));
  EXPECT_EQ(balancer.shares(),
            (std::vector<double>{0.0099957227210611937, 0.089303917127046994,
                                 0.089303917127046939, 0.0099957227210611937,
                                 0.30140072030378368}));
  EXPECT_EQ(balancer.version(), 16u);
}

TEST(Libanu, AllServersDownKeepsTheMap) {
  anu::Balancer balancer(3);
  balancer.record_latency(0, 5.0, 100);
  balancer.record_latency(1, 0.01, 100);
  balancer.record_latency(2, 0.01, 100);
  ASSERT_TRUE(balancer.retune().changed);
  const auto before = balancer.shares();
  std::vector<std::uint32_t> owners;
  for (std::size_t i = 0; i < 200; ++i) {
    owners.push_back(balancer.route("k/" + std::to_string(i)));
  }

  for (std::uint32_t s = 0; s < 3; ++s) balancer.set_server_up(s, false);
  const auto result = balancer.retune();
  EXPECT_EQ(result.version, 2u);
  EXPECT_FALSE(result.changed);
  EXPECT_EQ(result.system_average, 0.0);
  EXPECT_TRUE(result.incompetent.empty());
  EXPECT_EQ(balancer.shares(), before);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(balancer.route("k/" + std::to_string(i)), owners[i]);
  }

  // The kept map is a valid starting point once servers return.
  for (std::uint32_t s = 0; s < 3; ++s) balancer.set_server_up(s, true);
  EXPECT_EQ(balancer.retune().version, 3u);
  EXPECT_NEAR(sum(balancer.shares()), 0.5, 1e-9);
}

TEST(Libanu, UpServersWithEmptyRegionsRestartFromEqualShares) {
  anu::Balancer balancer(2);
  balancer.set_server_up(1, false);
  balancer.retune();
  ASSERT_EQ(balancer.shares(), (std::vector<double>{0.5, 0.0}));

  // The server holding the interval goes down as the empty one returns.
  balancer.set_server_up(0, false);
  balancer.set_server_up(1, true);
  const auto result = balancer.retune();
  EXPECT_TRUE(result.changed);
  EXPECT_EQ(balancer.shares(), (std::vector<double>{0.0, 0.5}));
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(balancer.route("k/" + std::to_string(i)), 1u);
  }
}

}  // namespace
