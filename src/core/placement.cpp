#include "core/placement.h"

#include <algorithm>

#include "common/assert.h"

namespace anu::core {

ProbePoints probe_points(const HashFamily& family, std::string_view key) {
  ProbePoints points;
  for (std::uint32_t r = 0; r < points.size(); ++r) {
    points[r] = family.unit_point(key, r);
  }
  return points;
}

std::size_t probe_distinct(const HashFamily& family, const RegionMap& map,
                           std::string_view key,
                           std::uint32_t max_probe_rounds,
                           std::span<Lookup> out) {
  return probe_distinct(family, map, key, {}, max_probe_rounds, out);
}

std::size_t probe_distinct(const HashFamily& family, const RegionMap& map,
                           std::string_view key,
                           std::span<const UnitPoint> points,
                           std::uint32_t max_probe_rounds,
                           std::span<Lookup> out) {
  ANU_REQUIRE(!out.empty());
  std::size_t found = 0;
  for (std::uint32_t r = 0; r < max_probe_rounds && found < out.size(); ++r) {
    const auto owner = map.owner_at(
        r < points.size() ? points[r] : family.unit_point(key, r));
    if (!owner) continue;
    const auto earlier = out.first(found);
    if (std::none_of(earlier.begin(), earlier.end(),
                     [&](const Lookup& l) { return l.server == *owner; })) {
      out[found++] = Lookup{*owner, r + 1};
    }
  }
  ANU_ENSURE(found > 0 && "lookup exhausted the hash family");
  return found;
}

Lookup locate(const HashFamily& family, const RegionMap& map,
              std::string_view key, std::uint32_t max_probe_rounds) {
  return locate(family, map, key, {}, max_probe_rounds);
}

Lookup locate(const HashFamily& family, const RegionMap& map,
              std::string_view key, std::span<const UnitPoint> points,
              std::uint32_t max_probe_rounds) {
  Lookup owner;
  probe_distinct(family, map, key, points, max_probe_rounds,
                 std::span<Lookup>(&owner, 1));
  return owner;
}

TunerDecision retune(
    RegionMap& map,
    const std::vector<std::optional<balance::ServerReport>>& reports,
    const std::vector<bool>& up, const TunerConfig& config,
    obs::TraceSink* trace, SimTime now) {
  const std::size_t k = map.server_count();
  ANU_REQUIRE(reports.size() == k && up.size() == k);
  std::vector<TunerInput> inputs(k);
  const auto shares = map.shares();
  std::size_t up_count = 0;
  bool up_holds_share = false;
  for (std::size_t s = 0; s < k; ++s) {
    inputs[s].current_share = static_cast<double>(shares[s].raw());
    if (up[s]) {
      inputs[s].report = reports[s].value_or(balance::ServerReport{0.0, 0});
      ++up_count;
      up_holds_share = up_holds_share || shares[s].raw() > 0;
    }
  }
  // Every up server holds an empty region (the servers that held the
  // interval all went down): each up server starts from an equal share.
  if (!up_holds_share) {
    for (std::size_t s = 0; s < k; ++s) {
      if (up[s]) {
        inputs[s].current_share = static_cast<double>(RegionMap::kHalfRaw) /
                                  static_cast<double>(up_count);
      }
    }
  }
  TunerDecision decision = run_delegate_round(inputs, config, trace, now);
  map.rebalance(RegionMap::normalize_shares(decision.weights));
  return decision;
}

}  // namespace anu::core
