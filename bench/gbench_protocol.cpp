// google-benchmark: the §4 control protocol's cost per tuning round, and
// routing on one replica. A round is every node reporting, the delegate
// tuning and distributing the new map, and every replica applying it and
// working out which of its file sets it shed; with 64 nodes and 4,096
// registered file sets the applies dominate.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "proto/network.h"
#include "proto/protocol.h"
#include "sim/simulation.h"

namespace {

using namespace anu;

constexpr std::uint32_t kNodes = 64;
constexpr std::uint32_t kFileSets = 4096;
constexpr double kInterval = 120.0;

std::vector<std::string> file_set_names() {
  std::vector<std::string> names;
  for (std::uint32_t i = 0; i < kFileSets; ++i) {
    names.push_back("proto/" + std::to_string(i));
  }
  return names;
}

/// A protocol cluster on the simulated clock and a clean simulated
/// network. Half the nodes report slow and half fast, and the halves
/// rotate by one node per round, so every round moves shares and every
/// replica applies a new map.
struct RotatingCluster {
  sim::Simulation sim;
  proto::Network network{sim, proto::NetworkConfig{}, kNodes};
  proto::ProtocolCluster protocol{
      sim, network, proto::ProtocolConfig{}, kNodes,
      [this](std::uint32_t s, UnitPoint /*share*/) {
        const auto round =
            static_cast<std::uint32_t>(sim.now() / kInterval + 0.5);
        const double latency = (s + round) % kNodes < kNodes / 2 ? 0.2 : 5.0;
        return balance::ServerReport{latency, 50};
      }};
  std::vector<std::string> names = file_set_names();

  RotatingCluster() {
    protocol.register_file_sets(names);
    run_round();  // leave the equal-share start
  }

  void run_round() { sim.run_until(sim.now() + kInterval); }
};

void BM_ProtocolRound(benchmark::State& state) {
  RotatingCluster cluster;
  for (auto _ : state) {
    cluster.run_round();
    benchmark::DoNotOptimize(cluster.protocol.version_of(0));
  }
  if (!cluster.protocol.replicas_agree()) {
    state.SkipWithError("replicas disagree after a clean round");
  }
}
BENCHMARK(BM_ProtocolRound);

/// One route per iteration, cycling through every file set and node.
void BM_RouteRegistered(benchmark::State& state) {
  RotatingCluster cluster;
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster.protocol.route_from(i % kNodes, FileSetId(i % kFileSets)));
    ++i;
  }
}
BENCHMARK(BM_RouteRegistered);

void BM_RouteByName(benchmark::State& state) {
  RotatingCluster cluster;
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster.protocol.route_from(i % kNodes, cluster.names[i % kFileSets]));
    ++i;
  }
}
BENCHMARK(BM_RouteByName);

}  // namespace
