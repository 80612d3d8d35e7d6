// Parity of the three placement callers (paper §4): placement is a pure
// function of the hash family and the region map, and "the next elected
// delegate runs the same protocol with the same information". The
// simulator's AnuBalancer, a ProtocolCluster delegate and libanu's Balancer
// are fed one script of reports and must hold identical maps and route
// every key identically, round after round.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "anu/anu.h"
#include "common/rng.h"
#include "core/anu_balancer.h"
#include "core/placement.h"
#include "core/tuner.h"
#include "proto/network.h"
#include "proto/protocol.h"
#include "sim/simulation.h"

namespace anu {
namespace {

constexpr std::size_t kRounds = 30;
constexpr std::size_t kKeys = 200;

using RoundReports = std::vector<std::optional<balance::ServerReport>>;

/// Per round, per server: a report, or nothing (about one in seven). Base
/// latencies span 8x across servers so the tuner leaves its dead band.
std::vector<RoundReports> make_script(std::size_t servers,
                                      std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<RoundReports> script(kRounds, RoundReports(servers));
  for (RoundReports& round : script) {
    for (std::size_t s = 0; s < servers; ++s) {
      if (rng.next_double() < 0.15) continue;
      const double base = 0.05 * static_cast<double>(1u << (s % 4));
      round[s] = balance::ServerReport{
          base * (0.5 + rng.next_double()),
          1 + static_cast<std::size_t>(rng.next_double() * 200.0)};
    }
  }
  return script;
}

std::vector<workload::FileSet> make_file_sets(std::size_t n) {
  std::vector<workload::FileSet> file_sets;
  for (std::uint32_t i = 0; i < n; ++i) {
    file_sets.push_back({FileSetId(i), "fs/" + std::to_string(i), 1.0});
  }
  return file_sets;
}

class PlacementParity
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(PlacementParity, OneScriptGivesOneMapAndOneRoute) {
  const auto [servers, seed] = GetParam();
  const std::vector<RoundReports> script = make_script(servers, seed);
  const core::TunerConfig tuner;

  core::AnuConfig core_config;
  core_config.tuner = tuner;
  core::AnuBalancer simulated(core_config, servers);
  const auto file_sets = make_file_sets(64);
  simulated.register_file_sets(file_sets);

  BalancerConfig lib_config;
  lib_config.alpha = tuner.alpha;
  lib_config.growth_cap = tuner.growth_cap;
  lib_config.shrink_cap = tuner.shrink_cap;
  lib_config.idle_growth = tuner.idle_growth;
  lib_config.min_share_fraction = tuner.min_share_fraction;
  lib_config.dead_band = tuner.dead_band;
  Balancer embedded(servers, lib_config);

  // A clean network and oracle membership: every report reaches the
  // delegate, which receives an idle report where the script has none.
  sim::Simulation sim;
  proto::Network network(sim, proto::NetworkConfig{}, servers);
  proto::ProtocolConfig proto_config;
  proto_config.tuner = tuner;
  std::size_t round = 0;
  proto::ProtocolCluster protocol(
      sim, network, proto_config, servers,
      [&](std::uint32_t s, UnitPoint) {
        return script[round][s].value_or(balance::ServerReport{0.0, 0});
      });
  std::vector<std::string> names;
  for (const auto& fs : file_sets) names.push_back(fs.name);
  protocol.register_file_sets(names);

  for (round = 0; round < kRounds; ++round) {
    for (std::uint32_t s = 0; s < servers; ++s) {
      if (const auto& report = script[round][s]) {
        simulated.report(ServerId(s), *report);
        embedded.record_latency(s, report->mean_latency, report->completed);
      }
    }
    simulated.tune();
    const RetuneResult lib_result = embedded.retune();
    const double tick =
        proto_config.tuning_interval * static_cast<double>(round + 1);
    sim.run_until(tick + 10.0);  // the round's tick plus message slack
    ASSERT_EQ(protocol.version_of(0), round + 1) << "round " << round;
    ASSERT_TRUE(protocol.replicas_agree()) << "round " << round;
    ASSERT_TRUE(simulated.region_map() == protocol.map_of(0))
        << "round " << round;
    EXPECT_EQ(simulated.last_system_average(), lib_result.system_average)
        << "round " << round;
    EXPECT_EQ(simulated.last_incompetent(), lib_result.incompetent)
        << "round " << round;

    const std::vector<double> lib_shares = embedded.shares();
    for (std::uint32_t s = 0; s < servers; ++s) {
      const UnitPoint share = simulated.region_map().share(ServerId(s));
      EXPECT_EQ(share.raw(), protocol.map_of(0).share(ServerId(s)).raw())
          << "round " << round << " server " << s;
      EXPECT_EQ(share.to_double(), lib_shares[s])
          << "round " << round << " server " << s;
    }

    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < kKeys; ++i) {
      const std::string key =
          "key/" + std::to_string(round) + "/" + std::to_string(i);
      const ServerId owner = simulated.locate(key).server;
      if (embedded.route(key) != owner.value()) ++mismatches;
      for (std::uint32_t n = 0; n < servers; ++n) {
        if (protocol.route_from(n, key) != owner) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Servers, PlacementParity,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{5},
                                         std::size_t{16}),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})));

TEST(Retune, UpServersWithEmptyRegionsStartFromEqualShares) {
  // Servers 0 and 1 hold the whole interval, then go down while servers 2
  // and 3, with empty regions, are up: no up server holds a share.
  core::RegionMap map(4);
  const core::TunerConfig config;
  const RoundReports none(4);
  core::retune(map, none, {true, true, false, false}, config);
  ASSERT_EQ(map.share(ServerId(2)).raw(), 0u);
  ASSERT_EQ(map.share(ServerId(3)).raw(), 0u);

  // Server 2 reports, server 3 does not: both are idle, so both grow by
  // the same step from the same start.
  RoundReports reports(4);
  reports[2] = balance::ServerReport{0.5, 0};
  core::retune(map, reports, {false, false, true, true}, config);
  map.check_invariants();
  EXPECT_EQ(map.share(ServerId(0)).raw(), 0u);
  EXPECT_EQ(map.share(ServerId(1)).raw(), 0u);
  EXPECT_EQ(map.share(ServerId(2)).raw(), core::RegionMap::kHalfRaw / 2);
  EXPECT_EQ(map.share(ServerId(3)).raw(), core::RegionMap::kHalfRaw / 2);
}

TEST(DelegateFailover, NewDelegateComputesIdenticalConfiguration) {
  // §4: "If the delegate fails, the next elected delegate runs the same
  // protocol with the same information." The delegate round is a pure
  // function, so two delegates fed the same reports must emit the same
  // decision — byte for byte.
  std::vector<core::TunerInput> reports(5);
  for (std::size_t s = 0; s < 5; ++s) {
    reports[s] = {0.2,
                  balance::ServerReport{0.5 + static_cast<double>(s), 40}};
  }
  const core::TunerConfig config;
  const auto by_old_delegate = core::run_delegate_round(reports, config);
  // Delegate crashes; server 1 takes over with the same reports.
  const auto by_new_delegate = core::run_delegate_round(reports, config);
  EXPECT_EQ(by_old_delegate.weights, by_new_delegate.weights);
  EXPECT_EQ(by_old_delegate.system_average, by_new_delegate.system_average);
  EXPECT_EQ(by_old_delegate.incompetent, by_new_delegate.incompetent);
}

TEST(DelegateFailover, BalancersConvergeIdenticallyUnderFailover) {
  // Two replicas of the balancer state machine fed identical reports reach
  // identical region maps regardless of which node runs the rounds.
  core::AnuBalancer a(core::AnuConfig{}, 5), b(core::AnuConfig{}, 5);
  std::vector<workload::FileSet> fs;
  for (std::uint32_t i = 0; i < 20; ++i) {
    fs.push_back({FileSetId(i), "d/" + std::to_string(i), 1.0});
  }
  a.register_file_sets(fs);
  b.register_file_sets(fs);
  for (int round = 0; round < 10; ++round) {
    for (std::uint32_t s = 0; s < 5; ++s) {
      const balance::ServerReport report{1.0 + s * 0.7, 30};
      a.report(ServerId(s), report);
      b.report(ServerId(s), report);
    }
    a.tune();
    b.tune();
  }
  for (std::uint32_t s = 0; s < 5; ++s) {
    EXPECT_EQ(a.region_map().share(ServerId(s)).raw(),
              b.region_map().share(ServerId(s)).raw());
  }
}

}  // namespace
}  // namespace anu
