// FNV-1a over a run's latency-over-time windows and over its retained trace
// events, for golden tests that pin every window of every server, or every
// event of a run, bit for bit.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "obs/trace_sink.h"

namespace anu {

/// Folds the low `bytes` bytes of `value` into an FNV-1a hash, low byte
/// first.
inline void fnv1a_fold(std::uint64_t& hash, std::uint64_t value, int bytes) {
  for (int byte = 0; byte < bytes; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
}

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// Hashes the bit patterns of every window's time and mean, server by
/// server, eight bytes each, low byte first.
inline std::uint64_t series_hash(
    const std::vector<std::vector<TimeSeries::Point>>& series) {
  std::uint64_t hash = kFnv1aOffset;
  for (const auto& server : series) {
    for (const TimeSeries::Point& point : server) {
      fnv1a_fold(hash, std::bit_cast<std::uint64_t>(point.time), 8);
      fnv1a_fold(hash, std::bit_cast<std::uint64_t>(point.value), 8);
    }
  }
  return hash;
}

/// Hashes every retained trace event, oldest first: its type (one byte),
/// the a, b and c slots (four bytes each) and the bit patterns of time, x
/// and y (eight bytes each), low byte first.
inline std::uint64_t trace_hash(const obs::TraceSink& sink) {
  std::uint64_t hash = kFnv1aOffset;
  sink.for_each([&](const obs::TraceEvent& e) {
    fnv1a_fold(hash, static_cast<std::uint64_t>(e.type), 1);
    fnv1a_fold(hash, e.a, 4);
    fnv1a_fold(hash, e.b, 4);
    fnv1a_fold(hash, e.c, 4);
    fnv1a_fold(hash, std::bit_cast<std::uint64_t>(e.time), 8);
    fnv1a_fold(hash, std::bit_cast<std::uint64_t>(e.x), 8);
    fnv1a_fold(hash, std::bit_cast<std::uint64_t>(e.y), 8);
  });
  return hash;
}

}  // namespace anu
