// FNV-1a over a run's latency-over-time windows, for golden tests that pin
// every window of every server bit for bit.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/stats.h"

namespace anu {

/// Hashes the bit patterns of every window's time and mean, server by
/// server, eight bytes each, low byte first.
inline std::uint64_t series_hash(
    const std::vector<std::vector<TimeSeries::Point>>& series) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& server : series) {
    for (const TimeSeries::Point& point : server) {
      for (const double x : {point.time, point.value}) {
        const auto bits = std::bit_cast<std::uint64_t>(x);
        for (int byte = 0; byte < 8; ++byte) {
          hash ^= (bits >> (8 * byte)) & 0xffU;
          hash *= 0x100000001b3ULL;
        }
      }
    }
  }
  return hash;
}

}  // namespace anu
