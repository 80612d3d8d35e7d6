// anu::Clock against real time: the simulator's calendar, paced by a
// TimeSource.
//
// The decision core's behaviour must not depend on which clock drives it
// (docs/runtime.md), so this clock keeps its timers on a sim::Simulation
// of its own — the same (time, seq) calendar the event kernel runs — and
// only decides when wall time lets them fire:
//
//   * timers fire in strict (deadline, schedule-order) order, one at a
//     time — a callback that schedules a new timer at its own firing time
//     sees it run after every earlier-scheduled due timer;
//   * now() observed inside a callback is the firing timer's deadline, not
//     the jittery instant the host thread got scheduled — so intervals
//     computed from now() are exact and tuning rounds land on the same
//     boundaries as in simulation;
//   * handles are the calendar's own: cancellation is O(1), safe after
//     firing, and generation-checked against slot reuse.
//
// Single-threaded by design — pump() it from the owning event loop.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/clock.h"
#include "runtime/time_source.h"
#include "sim/simulation.h"

namespace anu::runtime {

class RealtimeClock final : public anu::Clock {
 public:
  explicit RealtimeClock(TimeSource& source) : source_(source) {}

  /// Inside a firing callback: that timer's deadline. Outside: the source's
  /// current time (never earlier than the last fired deadline).
  [[nodiscard]] SimTime now() const override;

  /// Deadlines in the past are clamped to now() and fire at the next pump.
  anu::TimerHandle schedule_at(SimTime when, Action action) override;

  [[nodiscard]] obs::TraceSink* trace() const override {
    return calendar_.trace();
  }
  void set_trace(obs::TraceSink* trace) { calendar_.set_trace(trace); }

  /// Fires every timer whose deadline has been reached, in (deadline, seq)
  /// order; returns the number fired. Call from the event loop whenever it
  /// wakes up.
  std::size_t pump();

  /// Earliest pending deadline, or a negative value when no timer is armed
  /// — the event loop turns this into its poll timeout.
  [[nodiscard]] SimTime next_deadline();

 private:
  // Handles come from the calendar, so these only forward to it.
  void cancel_timer(std::uint64_t a, std::uint64_t b) override {
    forward_cancel(calendar_, a, b);
  }
  [[nodiscard]] bool timer_cancelled(std::uint64_t a,
                                     std::uint64_t b) const override {
    return forward_cancelled(calendar_, a, b);
  }

  TimeSource& source_;
  /// The timers. Its clock is the last fired deadline, or the last pump's
  /// horizon.
  sim::Simulation calendar_;
  bool firing_ = false;
};

}  // namespace anu::runtime
