#include "workload/streams.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
// Below driver::run_indexed, so the batch comes from the pool itself. Each
// job writes only its own pre-sized, disjoint range of the request array,
// so the workload is the same bits at any parallelism or completion order.
// anu-lint: allow(pool-order) jobs write only disjoint, pre-sized ranges
#include "common/thread_pool.h"

namespace anu::workload {

std::span<const double> StreamDraws::renewal(std::size_t count,
                                             const BoundedPareto& gap,
                                             Xoshiro256& rng) {
  // One bulk uniform fill, then inversion and prefix sum in place.
  times_.resize(count);
  rng.fill_doubles(times_);
  double t = 0.0;
  for (double& time : times_) {
    t += gap.from_uniform(time);
    time = t;
  }
  return times_;
}

std::span<const double> StreamDraws::demands(std::size_t count,
                                             double mean_demand, double sigma,
                                             Xoshiro256& rng) {
  const Lognormal jitter(-0.5 * sigma * sigma, sigma);  // mean exactly 1
  if (!(sigma > 0.0)) {
    demands_.assign(count, mean_demand);
    return demands_;
  }
  // Request j's uniforms sit at 2j and 2j + 1, which are read before slot j
  // is written, so the demands overwrite the uniforms in place.
  demands_.resize(2 * count);
  rng.fill_doubles(demands_);
  for (std::size_t j = 0; j < count; ++j) {
    demands_[j] = mean_demand *
                  jitter.from_uniforms(demands_[2 * j], demands_[2 * j + 1]);
  }
  demands_.resize(count);
  return demands_;
}

void draw_streams(std::span<const std::size_t> counts,
                  const StreamShape& shape, std::span<Request> requests,
                  const std::function<double(double)>& warp) {
  // File set i's slice starts at the sum of the counts before it.
  std::vector<std::size_t> starts(counts.size() + 1, 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ANU_REQUIRE(counts[i] > 0);
    starts[i + 1] = starts[i] + counts[i];
  }
  ANU_REQUIRE(starts.back() == requests.size());
  run_indexed(counts.size(), [&](std::size_t i) {
    const auto id = FileSetId(static_cast<std::uint32_t>(i));
    Xoshiro256 rng =
        Xoshiro256::substream(shape.seed, shape.substream_base + i);
    StreamDraws draws;
    // Rescale the renewal process so its last arrival lands on the span.
    // Rescaling preserves burst structure (ratios between gaps) while
    // hitting the exact request count.
    const auto times = draws.renewal(counts[i], shape.gap, rng);
    const double scale = shape.span / times.back();
    const auto demands =
        draws.demands(counts[i], shape.mean_demand, shape.sigma, rng);
    const auto out = requests.subspan(starts[i], counts[i]);
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j] = Request{times[j] * scale, id, demands[j]};
    }
    if (warp) {
      for (Request& r : out) r.arrival = warp(r.arrival);
    }
  });
}

namespace {

// A split makes at most this many buckets: few enough that the write heads
// of an in-place pass over a large array stay in cache.
constexpr std::size_t kMaxBuckets = 1024;
// Ranges up to this long are split through a scratch of this many requests
// (96 KB) rather than in place.
constexpr std::size_t kScatterMax = 4096;
// Ranges this short are left to the insertion pass.
constexpr std::size_t kLeaf = 16;
// How far ahead of an in-place write head to prefetch, in requests.
constexpr std::size_t kAhead = 8;

bool before(const Request& a, const Request& b) {
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  return a.file_set < b.file_set;
}

struct SplitBuffers {
  std::vector<std::size_t> starts;  // bucket boundaries of the last split
  std::vector<std::size_t> heads;   // write heads
  std::vector<Request> scratch;
};

/// Moves the requests of `range` into buckets of equal width over the span
/// of `key` in the range, smallest keys first, and sets `buf.starts` to the
/// bucket boundaries. Returns false, moving nothing, when the keys span no
/// width (or more than a double holds). Every bucket is smaller than the
/// range: the smallest key lands in the first bucket and the largest in the
/// last.
template <typename Key>
bool split_by(std::span<Request> range, Key key, SplitBuffers& buf) {
  double lo = key(range.front());
  double hi = lo;
  for (const Request& r : range) {
    lo = std::min(lo, key(r));
    hi = std::max(hi, key(r));
  }
  if (!(lo < hi)) return false;
  const std::size_t buckets = std::min(kMaxBuckets, range.size());
  const double limit = static_cast<double>(buckets);
  const double per_unit = limit / (hi - lo);
  if (!(per_unit > 0.0)) return false;
  // Monotone in the key. The offset is clamped before it is converted:
  // converting a double beyond size_t's range, or NaN, is undefined.
  auto bucket = [&](const Request& r) -> std::size_t {
    const double offset = (key(r) - lo) * per_unit;
    return offset < limit ? static_cast<std::size_t>(offset) : buckets - 1;
  };
  std::vector<std::size_t>& starts = buf.starts;
  std::vector<std::size_t>& heads = buf.heads;
  starts.assign(buckets + 1, 0);
  for (const Request& r : range) ++starts[bucket(r) + 1];
  for (std::size_t b = 1; b <= buckets; ++b) starts[b] += starts[b - 1];
  heads.assign(starts.begin(), starts.end() - 1);
  if (range.size() <= kScatterMax) {
    buf.scratch.assign(range.begin(), range.end());
    for (const Request& r : buf.scratch) range[heads[bucket(r)]++] = r;
    return true;
  }
  // In place: cycle each misplaced request to its bucket's write head. Each
  // head walks its bucket front to back, so fetching a few requests ahead
  // of it hides most of the misses of a range larger than the cache.
  const std::size_t last = range.size() - 1;
  for (std::size_t b = 0; b < buckets; ++b) {
    while (heads[b] < starts[b + 1]) {
      Request moving = range[heads[b]];
      std::size_t to = bucket(moving);
      while (to != b) {
        __builtin_prefetch(&range[std::min(heads[to] + kAhead, last)], 1);
        std::swap(moving, range[heads[to]++]);
        to = bucket(moving);
      }
      range[heads[b]++] = moving;
    }
  }
  return true;
}

/// Splits `range` by arrival, or by file set where every arrival in it is
/// equal: each file set's last request lands on the same final instant.
/// Leaves `buf.starts` empty when the range cannot be split.
void split(std::span<Request> range, SplitBuffers& buf) {
  buf.starts.clear();
  if (split_by(range, [](const Request& r) { return r.arrival; }, buf)) {
    return;
  }
  split_by(
      range,
      [](const Request& r) { return static_cast<double>(r.file_set.value()); },
      buf);
}

/// order_by_arrival on one thread.
void order_serial(std::span<Request> requests) {
  struct Range {
    std::size_t begin;
    std::size_t end;
  };
  // Split depth first until every range is a leaf.
  SplitBuffers buf;
  std::vector<Range> pending;
  if (requests.size() > kLeaf) pending.push_back({0, requests.size()});
  while (!pending.empty()) {
    const Range range = pending.back();
    pending.pop_back();
    split(requests.subspan(range.begin, range.end - range.begin), buf);
    const std::vector<std::size_t>& starts = buf.starts;
    for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
      if (starts[b + 1] - starts[b] > kLeaf) {
        pending.push_back(
            {range.begin + starts[b], range.begin + starts[b + 1]});
      }
    }
  }
  // The insertion pass alone makes the order correct; the splits leave it
  // a few requests to move per leaf.
  for (std::size_t i = 1; i < requests.size(); ++i) {
    if (!before(requests[i], requests[i - 1])) continue;
    const Request moving = requests[i];
    std::size_t j = i;
    do {
      requests[j] = requests[j - 1];
      --j;
    } while (j > 0 && before(moving, requests[j - 1]));
    requests[j] = moving;
  }
}

}  // namespace

void order_by_arrival(std::span<Request> requests) {
  SplitBuffers first;
  if (requests.size() > kScatterMax) split(requests, first);
  const std::vector<std::size_t>& starts = first.starts;
  if (starts.empty()) {
    order_serial(requests);
    return;
  }
  // Every key in a bucket is smaller than every key in the next, so no
  // insertion crosses a bucket edge: each bucket is finished alone, just as
  // order_serial would finish it.
  run_indexed(starts.size() - 1, [&](std::size_t b) {
    order_serial(requests.subspan(starts[b], starts[b + 1] - starts[b]));
  });
}

}  // namespace anu::workload
