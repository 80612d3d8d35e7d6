// libanu implementation: the public Balancer facade over core/placement —
// the placement functions the simulator and the protocol call, so an
// embedding gets the simulated behaviour.
#include "anu/anu.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/assert.h"
#include "core/placement.h"
#include "core/region_map.h"
#include "core/tuner.h"
#include "hash/hash_family.h"

namespace anu {

struct Balancer::Impl {
  BalancerConfig config;
  core::TunerConfig tuner;
  HashFamily family;
  core::RegionMap map;
  std::uint64_t version = 0;
  std::vector<bool> up;
  std::vector<std::optional<balance::ServerReport>> reports;

  Impl(std::size_t server_count, const BalancerConfig& cfg)
      : config(cfg),
        family(cfg.hash_seed),
        map(server_count),
        up(server_count, true),
        reports(server_count) {
    tuner.alpha = cfg.alpha;
    tuner.growth_cap = cfg.growth_cap;
    tuner.shrink_cap = cfg.shrink_cap;
    tuner.idle_growth = cfg.idle_growth;
    tuner.min_share_fraction = cfg.min_share_fraction;
    tuner.dead_band = cfg.dead_band;
  }
};

Balancer::Balancer(std::size_t server_count, const BalancerConfig& config)
    : impl_(std::make_unique<Impl>(server_count, config)) {
  ANU_REQUIRE(server_count > 0);
  ANU_REQUIRE(config.max_probe_rounds > 0);
}

Balancer::~Balancer() = default;
Balancer::Balancer(Balancer&&) noexcept = default;
Balancer& Balancer::operator=(Balancer&&) noexcept = default;

std::size_t Balancer::server_count() const { return impl_->up.size(); }

void Balancer::set_server_up(std::uint32_t server, bool up) {
  ANU_REQUIRE(server < impl_->up.size());
  impl_->up[server] = up;
  if (!up) impl_->reports[server].reset();
}

bool Balancer::server_up(std::uint32_t server) const {
  ANU_REQUIRE(server < impl_->up.size());
  return impl_->up[server];
}

void Balancer::record_latency(std::uint32_t server, double mean_latency,
                              std::uint64_t completed) {
  ANU_REQUIRE(server < impl_->reports.size());
  ANU_REQUIRE(mean_latency >= 0.0);
  impl_->reports[server] = balance::ServerReport{
      mean_latency, static_cast<std::size_t>(completed)};
}

RetuneResult Balancer::retune() {
  Impl& impl = *impl_;
  RetuneResult result;
  result.version = ++impl.version;
  // With every server down no delegate round can run; the map stays, so
  // route() keeps answering from it.
  if (std::find(impl.up.begin(), impl.up.end(), true) != impl.up.end()) {
    const auto before = impl.map.shares();
    const auto decision =
        core::retune(impl.map, impl.reports, impl.up, impl.tuner);
    result.system_average = decision.system_average;
    result.incompetent = decision.incompetent;
    result.changed = impl.map.shares() != before;
  }
  std::fill(impl.reports.begin(), impl.reports.end(), std::nullopt);
  return result;
}

std::uint32_t Balancer::route(std::string_view key) const {
  return core::locate(impl_->family, impl_->map, key,
                      impl_->config.max_probe_rounds)
      .server.value();
}

std::uint64_t Balancer::version() const { return impl_->version; }

std::vector<double> Balancer::shares() const {
  std::vector<double> out;
  out.reserve(impl_->up.size());
  for (const UnitPoint share : impl_->map.shares()) {
    out.push_back(share.to_double());
  }
  return out;
}

}  // namespace anu
