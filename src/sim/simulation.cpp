#include "sim/simulation.h"

#include <limits>
#include <utility>

#include "common/assert.h"

namespace anu::sim {

anu::TimerHandle Simulation::schedule_at(SimTime when, Action action) {
  ANU_REQUIRE(when >= now_);
  ANU_REQUIRE(static_cast<bool>(action));
  const std::uint32_t slot = acquire_slot();
  Slot& s = slot_ref(slot);
  s.action = std::move(action);
  queue_.push(when, next_seq_++, slot);
  if (pending_events() > max_pending_) max_pending_ = pending_events();
  return make_handle(slot, s.generation);
}

void Simulation::set_stream(Action action) {
  ANU_REQUIRE(!stream_ && static_cast<bool>(action));
  stream_ = std::move(action);
}

void Simulation::arm_stream(SimTime when) {
  ANU_REQUIRE(when >= now_);
  ANU_REQUIRE(static_cast<bool>(stream_) && !stream_armed_);
  stream_time_ = when;
  stream_seq_ = next_seq_++;
  stream_armed_ = true;
  if (pending_events() > max_pending_) max_pending_ = pending_events();
}

void Simulation::cancel_timer(std::uint64_t slot, std::uint64_t generation) {
  Slot& s = slot_ref(static_cast<std::uint32_t>(slot));
  // Generation check: only cancel the slot while our event still owns it.
  // After the event fires the slot is recycled under a new generation, so
  // a late cancel can never hit the slot's next tenant.
  if (s.generation == generation) s.cancelled = true;
}

bool Simulation::timer_cancelled(std::uint64_t slot,
                                 std::uint64_t generation) const {
  const Slot& s = slot_ref(static_cast<std::uint32_t>(slot));
  return s.generation == generation && s.cancelled;
}

std::optional<SimTime> Simulation::next_event_time() {
  while (!queue_.empty()) {
    const EventKey key = queue_.min();
    if (stream_armed_ && stream_precedes(key)) break;
    if (!slot_ref(key.slot).cancelled) return key.time;
    queue_.drop_min();
    ++cancelled_skipped_;
    release_slot(key.slot);
  }
  if (stream_armed_) return stream_time_;
  return std::nullopt;
}

void Simulation::advance_to(SimTime time) {
  now_ = time;
  if (time == last_dispatch_time_) {
    ++simultaneous_run_;
  } else {
    last_dispatch_time_ = time;
    simultaneous_run_ = 1;
  }
  if (simultaneous_run_ > max_simultaneous_) {
    max_simultaneous_ = simultaneous_run_;
  }
}

std::uint64_t Simulation::run_until(SimTime until) {
  if (stop_requested_) {
    // A stop requested before the run starts halts it before the first
    // event: no events fire and the clock stays put. The request is
    // consumed, so the next run proceeds normally.
    stop_requested_ = false;
    return 0;
  }
  std::uint64_t ran = 0;
  for (;;) {
    const EventKey* head = queue_.empty() ? nullptr : &queue_.min();
    if (stream_armed_ && (head == nullptr || stream_precedes(*head))) {
      if (stream_time_ > until) break;
      // Disarmed before the action runs, so the action may re-arm it.
      stream_armed_ = false;
      advance_to(stream_time_);
      stream_();
    } else {
      if (head == nullptr) break;
      const EventKey key = *head;
      if (key.time > until) break;
      queue_.drop_min();
      // Dispatch order is time order, not slot order, so the slab walk is
      // effectively random once the calendar is large. Start pulling the
      // next event's slot in while this one executes.
      if (const EventKey* next = queue_.staged_min()) {
        __builtin_prefetch(&slot_ref(next->slot));
      }
      Slot& slot = slot_ref(key.slot);
      if (slot.cancelled) {
        ++cancelled_skipped_;
        release_slot(key.slot);
        continue;
      }
      advance_to(key.time);
      // Invoke straight from the slab: chunk addresses are stable, so a
      // reentrant schedule_at — even one that grows the slab — cannot move
      // the executing action. The slot is recycled only after it returns
      // (a re-arming action therefore lands in a sibling slot, which the
      // next dispatch frees right back).
      slot.action();
      release_slot(key.slot);
    }
    ++ran;
    if (stop_requested_) break;
  }
  executed_ += ran;  // events_executed() is only read between runs
  stop_requested_ = false;
  // The clock advances to a finite horizon so monitors reading now() at the
  // end of a bounded run see the full interval, and never moves backwards.
  if (until > now_ && until != std::numeric_limits<SimTime>::infinity()) {
    now_ = until;
  }
  return ran;
}

std::uint64_t Simulation::run_to_completion() {
  return run_until(std::numeric_limits<SimTime>::infinity());
}

SimQueueStats Simulation::queue_stats() const {
  SimQueueStats stats;
  stats.scheduled = next_seq_;
  stats.executed = executed_;
  stats.cancelled_skipped = cancelled_skipped_;
  stats.max_pending = max_pending_;
  stats.slab_high_water = slot_count_;
  stats.max_simultaneous = max_simultaneous_;
  const LadderStats& ladder = queue_.stats();
  stats.rung_spills = ladder.rung_spills;
  stats.top_transfers = ladder.top_transfers;
  stats.bottom_sorts = ladder.bottom_sorts;
  return stats;
}

std::uint32_t Simulation::acquire_slot() {
  // No live-count or high-water tracking here: the free list is LIFO, so a
  // fresh slot is carved exactly when every slot handed out so far is live
  // — slot_count_ IS the slab's high-water mark.
  std::uint32_t slot;
  if (free_head_ != kNullSlot) {
    slot = free_head_;
    free_head_ = slot_ref(slot).next_free;
  } else {
    if (slot_count_ == slot_cap_) {
      chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
      slot_cap_ += kSlotChunkSize;
    }
    slot = slot_count_++;
  }
  return slot;
}

void Simulation::release_slot(std::uint32_t slot) {
  Slot& s = slot_ref(slot);
  s.action.reset();
  ++s.generation;  // invalidates every outstanding handle to this tenancy
  // Cleared even on the post-invoke path: an action may cancel its own
  // handle while running, and the flag must not leak to the next tenant.
  s.cancelled = false;
  s.next_free = free_head_;
  free_head_ = slot;
}

}  // namespace anu::sim
