// Placement: the addressing and the retuning every ANU node runs, written
// once.
//
// Paper §4: placement is a pure function of (hash family, region map), and
// "if the delegate fails, the next elected delegate runs the same protocol
// with the same information". These free functions are that protocol. The
// simulator's AnuBalancer, every ProtocolCluster replica and libanu's
// Balancer each hold their own (family, map) pair and call them, so all
// three make the same decisions (tests/placement_test.cpp). Each caller
// keeps what differs between them: its version numbers, when reports are
// cleared, and membership handling outside a round.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "balance/balancer.h"
#include "core/region_map.h"
#include "core/tuner.h"
#include "hash/hash_family.h"
#include "obs/trace_sink.h"

namespace anu::core {

/// Where a key landed: its owner, and how many hash probes found it (§4:
/// "On average, the system requires two probes to assign a file set").
struct Lookup {
  ServerId server;
  std::uint32_t probes = 0;
};

/// A key's first probe points, H_0(key) .. H_3(key), hashed once for a key
/// that is located again under every new map (a registered file set).
/// Half the interval is mapped, so four probes settle 15 lookups in 16.
using ProbePoints = std::array<UnitPoint, 4>;
[[nodiscard]] ProbePoints probe_points(const HashFamily& family,
                                       std::string_view key);

/// Re-hash addressing: probes H_0(key), H_1(key), ... and fills `out` with
/// the first out.size() probes that land on distinct servers, in probe
/// order. Returns how many it filled: fewer when fewer distinct servers are
/// mapped within `max_probe_rounds` probes. Allocates nothing. Half the
/// interval is mapped, so finding no owner at all (probability
/// 2^-max_probe_rounds) means a corrupted map and aborts.
std::size_t probe_distinct(const HashFamily& family, const RegionMap& map,
                           std::string_view key,
                           std::uint32_t max_probe_rounds,
                           std::span<Lookup> out);

/// The same, reading probe r from `points[r]` where the key's points were
/// hashed beforehand (probe_points) and hashing only the probes past them.
std::size_t probe_distinct(const HashFamily& family, const RegionMap& map,
                           std::string_view key,
                           std::span<const UnitPoint> points,
                           std::uint32_t max_probe_rounds,
                           std::span<Lookup> out);

/// The key's owner: the first mapped probe (probe_distinct with one slot).
[[nodiscard]] Lookup locate(const HashFamily& family, const RegionMap& map,
                            std::string_view key,
                            std::uint32_t max_probe_rounds);
[[nodiscard]] Lookup locate(const HashFamily& family, const RegionMap& map,
                            std::string_view key,
                            std::span<const UnitPoint> points,
                            std::uint32_t max_probe_rounds);

/// One delegate round: feeds run_delegate_round every server's current
/// share of `map` and its report, then rebalances `map` to the decision.
/// `reports` and `up` are indexed by server id; at least one server must be
/// up.
///
/// The idle-server policy: an up server with no report reads as idle,
/// {0.0, 0}, and grows by a bounded step, so a lost or missing report never
/// stalls a round. A down server gets no report, even if one was filed, and
/// its region is reclaimed. When no up server holds a share (every server
/// that held the interval is down), each up server starts the round from an
/// equal share.
///
/// `trace`/`now` are forwarded to run_delegate_round's delegate_round
/// event; tracing never alters the decision.
TunerDecision retune(
    RegionMap& map,
    const std::vector<std::optional<balance::ServerReport>>& reports,
    const std::vector<bool>& up, const TunerConfig& config,
    obs::TraceSink* trace = nullptr, SimTime now = 0.0);

}  // namespace anu::core
