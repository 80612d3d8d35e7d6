#include "core/anu_balancer.h"

#include <algorithm>
#include <array>
#include <span>
#include <utility>

#include "common/assert.h"

namespace anu::core {

AnuBalancer::AnuBalancer(const AnuConfig& config, std::size_t server_count)
    : config_(config),
      family_(config.hash_seed),
      regions_(server_count),
      up_(server_count, true),
      pending_(server_count) {
  ANU_REQUIRE(config.placement_choices >= 1 && config.placement_choices <= 8);
}

void AnuBalancer::register_file_sets(
    const std::vector<workload::FileSet>& file_sets) {
  names_.clear();
  names_.reserve(file_sets.size());
  probe_points_.clear();
  probe_points_.reserve(file_sets.size());
  weights_.clear();
  weights_.reserve(file_sets.size());
  for (const auto& fs : file_sets) {
    names_.push_back(fs.name);
    probe_points_.push_back(probe_points(family_, fs.name));
    weights_.push_back(fs.weight > 0.0 ? fs.weight : 1.0);
  }
  placement_ = resolve_all();
}

ServerId AnuBalancer::server_for(FileSetId id) const {
  ANU_REQUIRE(id.value() < placement_.size());
  return placement_[id.value()];
}

void AnuBalancer::report(ServerId server,
                         const balance::ServerReport& report) {
  ANU_REQUIRE(server.value() < pending_.size());
  ANU_REQUIRE(up_[server.value()]);
  pending_[server.value()] = report;
}

AnuBalancer::Lookup AnuBalancer::locate(std::string_view name) const {
  return core::locate(family_, regions_, name, config_.max_probe_rounds);
}

bool AnuBalancer::server_up(ServerId id) const {
  ANU_REQUIRE(id.value() < up_.size());
  return up_[id.value()];
}

std::vector<AnuBalancer::Lookup> AnuBalancer::candidate_set(
    std::string_view name, std::uint32_t count) const {
  ANU_REQUIRE(count >= 1);
  std::vector<Lookup> found(count);
  found.resize(probe_distinct(family_, regions_, name,
                              config_.max_probe_rounds, found));
  return found;
}

AnuBalancer::Candidates AnuBalancer::candidates(std::string_view name) const {
  const auto set = candidate_set(name, 2);
  Candidates result;
  result.first = set[0];
  if (set.size() > 1) result.second = set[1];
  return result;
}

std::vector<ServerId> AnuBalancer::resolve_all() const {
  std::vector<ServerId> placed;
  placed.reserve(names_.size());
  if (config_.placement_choices <= 1) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      placed.push_back(core::locate(family_, regions_, names_[i],
                                    probe_points_[i],
                                    config_.max_probe_rounds)
                           .server);
    }
    return placed;
  }
  // d-choice heuristic: greedily (in file-set order, deterministic on
  // every node) pick the candidate whose server carries the least
  // registered weight relative to its share. The winning choice index per
  // file set is what the cluster replicates alongside the region table.
  std::vector<double> load(regions_.server_count(), 0.0);
  const auto shares = regions_.shares();
  auto pressure = [&](ServerId s, double extra) {
    const double share = shares[s.value()].to_double();
    return (load[s.value()] + extra) / std::max(share, 1e-12);
  };
  std::array<Lookup, 8> set;  // placement_choices <= 8
  const auto slots = std::span(set).first(config_.placement_choices);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const std::size_t found =
        probe_distinct(family_, regions_, names_[i], probe_points_[i],
                       config_.max_probe_rounds, slots);
    ServerId pick = set[0].server;
    double best = pressure(pick, weights_[i]);
    for (std::size_t c = 1; c < found; ++c) {
      const double p = pressure(set[c].server, weights_[i]);
      if (p < best) {
        best = p;
        pick = set[c].server;
      }
    }
    load[pick.value()] += weights_[i];
    placed.push_back(pick);
  }
  return placed;
}

std::vector<double> AnuBalancer::up_share_weights() const {
  const auto shares = regions_.shares();
  std::vector<double> weights(shares.size(), 0.0);
  for (std::size_t s = 0; s < shares.size(); ++s) {
    if (up_[s]) weights[s] = static_cast<double>(shares[s].raw());
  }
  return weights;
}

balance::RebalanceResult AnuBalancer::apply_targets(
    const std::vector<UnitPoint::raw_type>& targets) {
  regions_.rebalance(targets);
  return replace_all();
}

balance::RebalanceResult AnuBalancer::replace_all() {
  const std::vector<ServerId> before = std::move(placement_);
  placement_ = resolve_all();
  return balance::diff_placement(before, placement_);
}

balance::RebalanceResult AnuBalancer::tune() {
  ++rounds_;
  const TunerDecision decision =
      retune(regions_, pending_, up_, config_.tuner);
  std::fill(pending_.begin(), pending_.end(), std::nullopt);
  last_average_ = decision.system_average;
  last_incompetent_ = decision.incompetent;
  return replace_all();
}

balance::RebalanceResult AnuBalancer::on_server_failed(ServerId id) {
  ANU_REQUIRE(id.value() < up_.size());
  ANU_REQUIRE(up_[id.value()]);
  up_[id.value()] = false;
  pending_[id.value()].reset();
  // Surviving servers scale up proportionally to absorb the failed share,
  // restoring the half-occupancy invariant (§4).
  std::vector<double> weights = up_share_weights();
  ANU_REQUIRE(std::any_of(weights.begin(), weights.end(),
                          [](double w) { return w > 0.0; }));
  return apply_targets(RegionMap::normalize_shares(weights));
}

balance::RebalanceResult AnuBalancer::on_server_recovered(ServerId id) {
  ANU_REQUIRE(id.value() < up_.size());
  ANU_REQUIRE(!up_[id.value()]);
  up_[id.value()] = true;
  // "When a server recovers or is added, it is assigned to a free partition
  // and all other servers are scaled back" (§4): the newcomer starts with
  // one partition's worth of the interval — it carries no capability
  // knowledge, and the delegate grows it from there.
  std::vector<double> weights = up_share_weights();
  weights[id.value()] =
      static_cast<double>(regions_.partition_size().raw());
  return apply_targets(RegionMap::normalize_shares(weights));
}

balance::RebalanceResult AnuBalancer::on_server_added(ServerId id) {
  // Commissioning is handled like recovery (§4), except the slot is new and
  // the partition table may need to re-partition first (Fig. 3).
  const ServerId slot = regions_.add_server_slot();
  ANU_REQUIRE(slot == id);
  up_.push_back(false);
  pending_.emplace_back();
  return on_server_recovered(id);
}

std::size_t AnuBalancer::shared_state_bytes() const {
  // d-choice placement replicates ceil(lg d) choice bits per file set on
  // top of the region table.
  std::size_t bits_per_set = 0;
  for (std::uint32_t span = 1; span < config_.placement_choices; span *= 2) {
    ++bits_per_set;
  }
  const std::size_t choice_bytes =
      (names_.size() * bits_per_set + 7) / 8;
  return regions_.shared_state_bytes() + choice_bytes;
}

}  // namespace anu::core
