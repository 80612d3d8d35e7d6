// The machinery the two workload generators share: drawing the file sets'
// request streams in bulk, and laying the streams out in time order.
//
// Draw-order contract: each file set draws from its own Xoshiro256
// substream, first its arrivals (one uniform per request), then its demands
// (two uniforms per request, in request order, none when the jitter is 0).
// StreamDraws consumes exactly the uniforms that per-request sample() calls
// would, so every seeded workload is bit-identical to one drawn that way.
//
// Both halves run as batches of anu::run_indexed jobs (common/thread_pool.h)
// on the caller and whatever helpers the process-wide budget has free: one
// job per file set, then one per time bucket of the layout. Each job writes
// only its own pre-sized slice of the request array, so the workload is the
// same bits at any parallelism, and a synthesis nested in a batch that holds
// every helper runs inline, in index order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/distributions.h"
#include "common/rng.h"
#include "workload/workload.h"

namespace anu::workload {

/// Buffers for drawing a file set's stream: its arrivals, then its demands.
class StreamDraws {
 public:
  /// Event times of a renewal process with `gap`-distributed gaps: the
  /// running sum of `count` gaps, in draw order.
  std::span<const double> renewal(std::size_t count, const BoundedPareto& gap,
                                  Xoshiro256& rng);

  /// `count` service demands: `mean_demand` times a unit-mean lognormal
  /// jitter of spread `sigma`, or `mean_demand` flat, with no draws, when
  /// `sigma` is 0.
  std::span<const double> demands(std::size_t count, double mean_demand,
                                  double sigma, Xoshiro256& rng);

 private:
  std::vector<double> times_;
  std::vector<double> demands_;
};

/// How every file set's request stream is drawn and scaled.
struct StreamShape {
  std::uint64_t seed = 0;
  /// File set i draws from substream `substream_base + i` of `seed`.
  std::uint64_t substream_base = 0;
  /// Inter-arrival gaps of each stream's renewal process.
  BoundedPareto gap;
  /// Each stream is rescaled so its last arrival lands here, before `warp`.
  double span = 0.0;
  /// Demands: `mean_demand` times a unit-mean lognormal jitter of spread
  /// `sigma` (flat when `sigma` is 0), as StreamDraws::demands.
  double mean_demand = 0.0;
  double sigma = 0.0;
};

/// Draws file set i's `counts[i]` requests, in draw order, into the slice
/// of `requests` that starts at counts[0] + ... + counts[i - 1]. `requests`
/// must hold exactly the sum of `counts`, and every count must be at least
/// 1. `warp`, when given, maps each rescaled arrival to its time. File sets
/// run as the jobs of one parallel batch, each with its own substream and
/// StreamDraws.
void draw_streams(std::span<const std::size_t> counts,
                  const StreamShape& shape, std::span<Request> requests,
                  const std::function<double(double)>& warp = {});

/// Puts `requests` in workload order: by arrival, ties by file set id.
/// Requests equal in both keep no particular order.
///
/// No comparison sort: ranges are split into time buckets, each refined
/// over its own time span (over file-set ids where all arrivals are equal)
/// until it is a few requests long, and an insertion pass finishes the
/// order. The buckets only buy speed; the insertion pass alone makes the
/// order correct. Linear in the generators' inputs, which cluster in time
/// only as much as bounded-Pareto streams do. Ranges longer than 4,096
/// requests are permuted in place and shorter ones go through a scratch of
/// that size, so the extra memory does not grow with the workload.
///
/// Past 4,096 requests the first split runs on the caller and its buckets
/// are finished as the jobs of one parallel batch. A bucket index is
/// monotone in one key, so every key in an earlier bucket is strictly
/// smaller and no insertion crosses a bucket edge: the order is the one a
/// single thread leaves, bit for bit.
void order_by_arrival(std::span<Request> requests);

}  // namespace anu::workload
