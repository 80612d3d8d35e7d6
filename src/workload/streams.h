// The machinery the two workload generators share: drawing one file set's
// request stream in bulk, and laying the streams out in time order.
//
// Draw-order contract: each file set draws from its own Xoshiro256
// substream, first its arrivals (one uniform per request), then its demands
// (two uniforms per request, in request order, none when the jitter is 0).
// StreamDraws consumes exactly the uniforms that per-request sample() calls
// would, so every seeded workload is bit-identical to one drawn that way.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/distributions.h"
#include "common/rng.h"
#include "workload/workload.h"

namespace anu::workload {

/// Reusable buffers for drawing file-set streams one after another.
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
void order_by_arrival(std::span<Request> requests);

}  // namespace anu::workload
