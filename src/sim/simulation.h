// Discrete-event simulation kernel.
//
// A from-scratch replacement for the YACSIM toolkit the paper used (§5.1):
// an event calendar ordered by (time, insertion sequence) — the sequence
// number gives deterministic FIFO semantics for simultaneous events — plus a
// simulation clock and cancellable event handles. Higher layers (FIFO
// queueing resources, the cluster model, and through sim::SimClock the
// periodic timers of common/clock.h) are built on exactly this interface.
//
// The calendar is a ladder queue (event_queue.h): O(1) amortized
// schedule/dispatch versus the O(log n) sift of a binary heap, with only
// the bucket nearest the clock ever sorted. Event payloads live in a
// free-listed slab inside the Simulation: scheduling reuses slots instead
// of allocating, an EventHandle is a generation-checked {slot, generation}
// ticket (no shared_ptr control block per event), and Action is a
// small-buffer-optimized callable (common/small_function.h) whose 48-byte
// inline buffer covers every capture in the tree — steady-state dispatch
// touches the heap zero times per event.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/small_function.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace anu::obs {
class TraceSink;
}

namespace anu::sim {

class Simulation;
class SimClock;

/// Cancellable handle to a scheduled event. Copyable; cancelling any copy
/// cancels the event. Safe to destroy before or after the event fires; all
/// operations are O(1) and allocation-free. The owning Simulation must
/// outlive any use of cancel()/cancelled() — which holds throughout the
/// tree, since handles live in objects that hold the Simulation by
/// reference.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing. Idempotent; no-op after it fired.
  void cancel();
  [[nodiscard]] bool cancelled() const;
  [[nodiscard]] bool valid() const { return sim_ != nullptr; }

 private:
  friend class Simulation;
  // The anu::Clock adapter packs {slot_, generation_} into its opaque
  // handle words and reconstructs EventHandles to cancel through.
  friend class SimClock;
  EventHandle(Simulation* sim, std::uint32_t slot, std::uint32_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}

  Simulation* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  /// Slab generation at scheduling time. A slot's generation bumps when
  /// the event fires (or is skipped) and the slot is recycled, so a stale
  /// handle can never cancel the slot's next tenant.
  std::uint32_t generation_ = 0;
  /// Remembers a cancel() issued through this handle so cancelled() stays
  /// true after the slot is recycled (the old shared-flag behavior).
  bool cancel_requested_ = false;
};

/// Kernel counters for one run, surfaced as the "sim.queue" block of the
/// run manifest (driver/telemetry). Cheap to maintain — a handful of adds
/// per event — and kept always-on so any manifest can explain kernel
/// behavior after the fact.
struct SimQueueStats {
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  /// Events popped but skipped because a handle cancelled them.
  std::uint64_t cancelled_skipped = 0;
  /// High-water mark of the calendar (pending events, cancelled included).
  std::uint64_t max_pending = 0;
  /// High-water mark of live slab slots — the kernel's resident footprint.
  std::uint64_t slab_high_water = 0;
  /// Longest run of dispatched events sharing one timestamp: how hard the
  /// FIFO tie-break is actually working.
  std::uint64_t max_simultaneous = 0;
  /// Ladder structure counters (see sim::LadderStats).
  std::uint64_t rung_spills = 0;
  std::uint64_t top_transfers = 0;
  std::uint64_t bottom_sorts = 0;
};

/// The event calendar + clock. Single-threaded by design: one Simulation per
/// experiment; parallel sweeps run many independent Simulations.
class Simulation {
 public:
  /// Scheduled callback. Move-only, with a 48-byte inline buffer — every
  /// capture in sim/, proto/ and driver/ fits, so scheduling never
  /// allocates for the callable; larger captures fall back to the heap.
  using Action = SmallFunction<void(), 48>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time (seconds).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` to run at absolute time `when` (>= now()).
  EventHandle schedule_at(SimTime when, Action action);

  /// Schedules `action` after `delay` (>= 0) simulated seconds.
  EventHandle schedule_after(SimTime delay, Action action);

  /// Runs events until the calendar empties or the clock passes `until`.
  /// Events at exactly `until` are executed. Returns events executed.
  /// A stop() requested before the call returns immediately (0 events,
  /// clock unchanged) and consumes the stop request.
  std::uint64_t run_until(SimTime until);

  /// Runs until the calendar is empty.
  std::uint64_t run_to_completion();

  /// Requests that the run loop stop after the current event returns. A
  /// request made outside a run halts the next run_until before its first
  /// event (see run_until).
  void stop() { stop_requested_ = true; }

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Kernel counters so far (cumulative across runs on this Simulation).
  [[nodiscard]] SimQueueStats queue_stats() const;

  /// Observability conduit: layers built on the simulation (cluster,
  /// network, protocol) emit trace events through this sink when one is
  /// attached. Null (the default) means tracing is disabled, and every
  /// instrumented site's fast path is a single null-pointer branch:
  ///   if (auto* t = sim.trace()) t->emit(...);
  /// The kernel itself never emits — event dispatch stays untraced.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }
  [[nodiscard]] obs::TraceSink* trace() const { return trace_; }

 private:
  friend class EventHandle;

  /// One slab slot: the event payload plus free-list and cancellation
  /// bookkeeping. Slots are recycled LIFO through free_head_.
  struct Slot {
    Action action;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNullSlot;
    bool cancelled = false;
  };
  static constexpr std::uint32_t kNullSlot = 0xffffffffu;
  /// Slab chunk size: 1024 slots (64 KiB). Chunked storage keeps slot
  /// addresses stable as the slab grows — no relocation of pending actions
  /// on expansion, unlike a flat vector's doubling copies.
  static constexpr std::uint32_t kSlotChunkBits = 10;
  static constexpr std::uint32_t kSlotChunkSize = 1u << kSlotChunkBits;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  [[nodiscard]] Slot& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kSlotChunkBits][slot & (kSlotChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot_ref(std::uint32_t slot) const {
    return chunks_[slot >> kSlotChunkBits][slot & (kSlotChunkSize - 1)];
  }

  SimTime now_ = 0.0;
  obs::TraceSink* trace_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
  LadderQueue queue_;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  /// Slots handed out at least once. Also the slab's high-water mark of
  /// live slots: the LIFO free list means a fresh slot is carved exactly
  /// when every previously carved slot is live.
  std::uint32_t slot_count_ = 0;
  std::uint32_t slot_cap_ = 0;  ///< chunks_.size() * kSlotChunkSize
  std::uint32_t free_head_ = kNullSlot;

  std::uint64_t cancelled_skipped_ = 0;
  std::uint64_t max_pending_ = 0;
  std::uint64_t max_simultaneous_ = 0;
  std::uint64_t simultaneous_run_ = 0;
  SimTime last_dispatch_time_ = -1.0;  // schedule times are >= 0
};

}  // namespace anu::sim
