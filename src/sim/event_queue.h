// Ladder queue: the event calendar behind sim::Simulation.
//
// A three-tier priority structure in the style of Tang, Goh & Thng's ladder
// queue. Far-future events sit unsorted in "top"; when the clock catches up
// an epoch of top is scattered into a rung of equal-width buckets; a bucket
// that is still too coarse is recursively refined into a finer child rung;
// only the bucket nearest the clock is ever sorted (into "bottom", the
// dequeue staging list). Enqueue and dequeue are O(1) amortized — each
// event is touched a bounded number of times (one scatter per rung level,
// capped, plus one final sort in a bounded-size bucket) instead of the
// O(log n) sift of a binary heap.
//
// Ordering contract (exact, not approximate): events dequeue in strictly
// ascending (time, seq). Bucket indices are computed with IEEE subtraction
// and division, both monotone in `time`, so two events never land in
// buckets that invert their time order; equal times always map to the same
// bucket; and every bucket is fully sorted by (time, seq) before anything
// is dequeued from it. Pushes are never earlier than the clock — the
// simulator cannot schedule in the past — which is what lets consumed
// buckets be discarded. A push may still be earlier than the last pop when
// Simulation::next_event_time has discarded a cancelled event ahead of the
// clock: such a key maps to a consumed bucket (bucket order is time order)
// and is inserted into bottom in order, ahead of everything still queued.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace anu::sim {

/// One pending event as the calendar sees it: the (time, seq) ordering key
/// plus the owning slab slot (simulation.h). Keys are 24 bytes and kept
/// separate from their payloads so scattering and sorting a rung never
/// touches a callback.
struct EventKey {
  SimTime time;
  std::uint64_t seq;
  std::uint32_t slot;
};

/// Structural counters, exposed through Simulation::queue_stats() and from
/// there the run manifest's "sim.queue" block.
struct LadderStats {
  std::uint64_t top_transfers = 0;   ///< top -> ladder epoch starts
  std::uint64_t rung_spills = 0;     ///< bucket -> finer child rung
  std::uint64_t bottom_sorts = 0;    ///< bucket/top -> sorted bottom
  std::uint64_t max_rung_depth = 0;  ///< deepest live refinement stack
};

class LadderQueue {
 public:
  /// Inserts an event. `seq` values must be unique; `time` must be
  /// non-negative (simulation clocks start at zero); a push earlier than
  /// the last pop joins bottom (see the header comment). Inline fast path:
  /// most pushes are at or beyond the current epoch and append to top.
  void push(SimTime time, std::uint64_t seq, std::uint32_t slot) {
    time += 0.0;  // normalize -0.0: times compare as integer bit patterns
    ++size_;
    if (size_ == 1) {
      // Queue was empty: every structure is drained, so start a fresh
      // epoch and let the next transfer pick new rung geometry.
      top_start_ = -std::numeric_limits<SimTime>::infinity();
    }
    if (time >= top_start_) {
      // Epoch bounds are recovered by a scan at transfer time (cache-
      // sequential, once per epoch) instead of being tracked per push.
      top_.push_back({time, seq, slot});
      return;
    }
    push_ladder({time, seq, slot});
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Key of the earliest pending event, (time, seq)-minimal. Requires
  /// !empty(). May sort the bucket nearest the clock (amortized O(1)).
  [[nodiscard]] const EventKey& min() {
    ANU_REQUIRE(size_ > 0);
    if (bottom_.empty()) fill_bottom();
    return bottom_.back();
  }

  /// Removes and returns the earliest pending event. Requires !empty().
  EventKey pop() {
    ANU_REQUIRE(size_ > 0);
    if (bottom_.empty()) fill_bottom();
    const EventKey key = bottom_.back();
    bottom_.pop_back();
    --size_;
    return key;
  }

  /// Removes the event min() just returned. Only valid immediately after a
  /// min() call with no intervening push — the dispatch loop's peek/pop
  /// pair without re-checking the staging list.
  void drop_min() {
    bottom_.pop_back();
    --size_;
  }

  /// Key that the next min() will return, when it is already staged (no
  /// bucket sort needed to find it). Dispatch uses this to prefetch the
  /// next event's slab slot while the current one runs.
  [[nodiscard]] const EventKey* staged_min() const {
    return bottom_.empty() ? nullptr : &bottom_.back();
  }

  [[nodiscard]] const LadderStats& stats() const { return stats_; }

 private:
  struct Rung {
    SimTime start = 0.0;    ///< left edge of bucket 0
    double width = 0.0;     ///< bucket width, > 0
    std::size_t cur = 0;    ///< next bucket to consume
    std::vector<std::vector<EventKey>> buckets;
  };

  /// Routes a pre-epoch push into the refinement stack or bottom (the
  /// push() slow path).
  void push_ladder(const EventKey& key);

  /// Refills `bottom_` from the nearest rung bucket (refining it if it is
  /// still too coarse) or, when the ladder is empty, from a new top epoch.
  /// Requires size_ > 0.
  void fill_bottom();

  /// Scatters `keys` (all within [start, start + width)) into a new child
  /// rung, or sorts them straight into `bottom_` when they are few enough,
  /// the refinement stack is at its cap, or `width` can no longer be
  /// subdivided in floating point.
  void spill(std::vector<EventKey>& keys, SimTime start, double width);

  void sort_into_bottom(std::vector<EventKey>& keys);
  void insert_bottom(const EventKey& key);

  std::size_t size_ = 0;
  /// Dequeue staging list, sorted descending by (time, seq): back() is the
  /// minimum, so pop is a pop_back.
  std::vector<EventKey> bottom_;
  /// Refinement stack: rungs_[0] is the epoch rung from the last top
  /// transfer, rungs_.back() the finest (nearest-clock) refinement.
  std::vector<Rung> rungs_;
  /// Unsorted far-future events: everything at or beyond top_start_.
  std::vector<EventKey> top_;
  /// Threshold time for routing pushes into top. Reset to -infinity when
  /// the queue drains so a fresh epoch starts from the next push.
  SimTime top_start_ = 0.0;
  /// Spare bucket vectors (with their capacity) recycled across rungs so
  /// steady-state dispatch allocates nothing.
  std::vector<std::vector<EventKey>> bucket_pool_;
  /// Scratch for spill()'s counting pass, reused across spills.
  std::vector<std::uint32_t> scatter_count_;

  LadderStats stats_;
};

}  // namespace anu::sim
