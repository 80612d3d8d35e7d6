// Discrete-event simulation kernel.
//
// A from-scratch replacement for the YACSIM toolkit the paper used (§5.1):
// an event calendar ordered by (time, insertion sequence) — the sequence
// number gives deterministic FIFO semantics for simultaneous events — plus a
// simulation clock and cancellable event handles. Simulation is itself an
// anu::Clock (common/clock.h), so the protocol and the periodic timers run
// on it directly, and runtime::RealtimeClock keeps its timers on one too:
// this calendar is the only timer calendar in the tree. Higher layers (FIFO
// queueing resources, the cluster model) are built on exactly this
// interface.
//
// The calendar is a ladder queue (event_queue.h): O(1) amortized
// schedule/dispatch versus the O(log n) sift of a binary heap, with only
// the bucket nearest the clock ever sorted. Event payloads live in a
// free-listed slab inside the Simulation: scheduling reuses slots instead
// of allocating, a handle is a generation-checked {slot, generation}
// ticket (no shared_ptr control block per event), and Action is a
// small-buffer-optimized callable (common/small_function.h) whose 48-byte
// inline buffer covers every capture in the tree — steady-state dispatch
// touches the heap zero times per event.
//
// Beside the calendar sits one re-armable **stream** item, which the
// request loop uses for its arrival cursor. It is ordered by the same
// (time, seq) key as a calendar event and counted like one, but arming it
// takes no calendar entry, slab slot or callable, so the one event that
// fires for every arrival skips the ladder's insert and pop.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/clock.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace anu::sim {

/// Kernel counters for one run, surfaced as the "sim.queue" block of the
/// run manifest (driver/telemetry). Cheap to maintain — a handful of adds
/// per event — and kept always-on so any manifest can explain kernel
/// behavior after the fact.
struct SimQueueStats {
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  /// Events popped but skipped because a handle cancelled them.
  std::uint64_t cancelled_skipped = 0;
  /// High-water mark of pending events: the calendar's, cancelled events
  /// included, plus the stream item while it is armed.
  std::uint64_t max_pending = 0;
  /// High-water mark of live slab slots — the kernel's resident footprint.
  /// The stream item holds no slot, so it is not counted here.
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
/// experiment; parallel sweeps run many independent Simulations. `final`,
/// so every call made through a Simulation& binds statically — the kernel's
/// hot path never goes through the Clock vtable.
class Simulation final : public anu::Clock {
 public:
  /// Current simulated time (seconds).
  [[nodiscard]] SimTime now() const override { return now_; }

  /// Schedules `action` to run at absolute time `when` (>= now()). The
  /// handle's words are the event's {slot, generation} ticket: a slot's
  /// generation bumps when its event fires (or is skipped) and the slot is
  /// recycled, so a stale handle can never cancel the slot's next tenant.
  anu::TimerHandle schedule_at(SimTime when, Action action) override;

  /// Installs the stream's action, once. Not part of anu::Clock: only
  /// code holding the Simulation itself arms the stream, so the realtime
  /// clock and the protocol never see it.
  void set_stream(Action action);

  /// Arms the stream item at `when` (>= now()); the stream must be
  /// disarmed. Arming takes the next sequence number, exactly as a
  /// schedule_at made at this moment would, so the item fires in the place
  /// that event would have. It is disarmed before its action runs, so the
  /// action may re-arm it. There is no cancel.
  void arm_stream(SimTime when);

  /// Runs events until the calendar and the stream are empty or the clock
  /// passes `until`. Events at exactly `until` are executed. Returns events
  /// executed. The clock then moves to `until` if that is finite and ahead
  /// of it; a horizon behind now() leaves it where it is. A stop()
  /// requested before the call returns immediately (0 events, clock
  /// unchanged) and consumes the stop request.
  std::uint64_t run_until(SimTime until);

  /// Runs until the calendar is empty and the stream disarmed.
  std::uint64_t run_to_completion();

  /// Time of the earliest event still due to fire (the armed stream item
  /// included), or nullopt when none is. Cancelled calendar events ahead of
  /// it are discarded on the way, exactly as run_until discards them (they
  /// count in cancelled_skipped). Fires nothing and leaves the clock where
  /// it is.
  [[nodiscard]] std::optional<SimTime> next_event_time();

  /// Requests that the run loop stop after the current event returns. A
  /// request made outside a run halts the next run_until before its first
  /// event (see run_until).
  void stop() { stop_requested_ = true; }

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  /// Calendar events (cancelled ones included) plus the armed stream item.
  [[nodiscard]] std::size_t pending_events() const {
    return queue_.size() + (stream_armed_ ? 1 : 0);
  }

  /// Kernel counters so far (cumulative across runs on this Simulation).
  [[nodiscard]] SimQueueStats queue_stats() const;

  /// Observability conduit: layers built on the simulation (cluster,
  /// network, protocol) emit trace events through this sink when one is
  /// attached. Null (the default) means tracing is disabled, and every
  /// instrumented site's fast path is a single null-pointer branch:
  ///   if (auto* t = sim.trace()) t->emit(...);
  /// The kernel itself never emits — event dispatch stays untraced.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }
  [[nodiscard]] obs::TraceSink* trace() const override { return trace_; }

 private:
  void cancel_timer(std::uint64_t slot, std::uint64_t generation) override;
  [[nodiscard]] bool timer_cancelled(std::uint64_t slot,
                                     std::uint64_t generation) const override;

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

  /// Whether the armed stream item comes before calendar event `key`.
  [[nodiscard]] bool stream_precedes(const EventKey& key) const {
    return stream_time_ < key.time ||
           (stream_time_ == key.time && stream_seq_ < key.seq);
  }
  /// Moves the clock to a dispatched event's time and keeps the
  /// simultaneity counters.
  void advance_to(SimTime time);

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

  Action stream_;
  SimTime stream_time_ = 0.0;
  std::uint64_t stream_seq_ = 0;
  bool stream_armed_ = false;

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
