// The clock seam between the decision core and whatever drives it.
//
// Everything above the event kernel — the control protocol (src/proto), the
// tuner pipeline it feeds (src/core) — needs exactly three things from its
// environment: the current time, a way to schedule a callback at an absolute
// time, and an optional trace sink. anu::Clock narrows that dependency to a
// virtual interface so the same protocol code runs against
//
//   * sim::Simulation — the discrete-event simulator (src/sim) is itself a
//     Clock; time is simulated and a whole day of protocol traffic executes
//     in microseconds;
//   * runtime::RealtimeClock — a wall-time wrapper (src/runtime) that keeps
//     its timers on a sim::Simulation of its own and fires them as a steady
//     clock passes their deadlines, which is what `anu_serve` and any
//     embedding application use.
//
// One calendar therefore backs both: timers fire in (deadline,
// schedule-order) order — FIFO among equal deadlines — and a callback may
// schedule or cancel further timers, including at its own firing time.
// Given that, the protocol's behaviour is a pure function of its inputs on
// either clock; docs/runtime.md states the sim-vs-realtime guarantees
// precisely, and tests/clock_parity_test.cpp checks the wall-time wrapper.
#pragma once

#include <cstdint>
#include <functional>

#include "common/small_function.h"
#include "common/types.h"

namespace anu::obs {
class TraceSink;
}

namespace anu {

class Clock;

/// Cancellable handle to a scheduled timer: copyable, cancelling any copy
/// cancels the timer, all operations O(1) and allocation-free, safe before
/// or after the timer fires. The two opaque words are interpreted by the
/// issuing Clock; the Clock must outlive any use of cancel()/cancelled().
class TimerHandle {
 public:
  TimerHandle() = default;

  /// Prevents the timer from firing. Idempotent; no-op after it fired.
  void cancel();
  [[nodiscard]] bool cancelled() const;
  [[nodiscard]] bool valid() const { return clock_ != nullptr; }

 private:
  friend class Clock;
  TimerHandle(Clock* clock, std::uint64_t a, std::uint64_t b)
      : clock_(clock), a_(a), b_(b) {}

  Clock* clock_ = nullptr;
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
  /// Remembers a cancel() issued through this handle so cancelled() stays
  /// true after the implementation recycles the timer's storage.
  bool cancel_requested_ = false;
};

/// Time + deferred execution, as the decision core sees it.
class Clock {
 public:
  /// Scheduled callback. Move-only, with a 48-byte inline buffer — every
  /// capture in sim/, proto/ and driver/ fits, so scheduling never
  /// allocates for the callable; larger captures fall back to the heap.
  using Action = SmallFunction<void(), 48>;

  Clock() = default;
  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;
  virtual ~Clock() = default;

  /// Current time, seconds. Simulated or wall — callers must not care.
  [[nodiscard]] virtual SimTime now() const = 0;

  /// Schedules `action` at absolute time `when`; `when` earlier than now()
  /// fires as soon as possible (the simulator rejects it, the realtime
  /// clock clamps — schedule non-past deadlines to stay portable).
  virtual TimerHandle schedule_at(SimTime when, Action action) = 0;

  /// Schedules `action` after `delay` (>= 0) seconds.
  TimerHandle schedule_after(SimTime delay, Action action);

  /// Observability conduit (docs/observability.md): null means tracing is
  /// disabled and instrumented sites pay one null-pointer branch.
  [[nodiscard]] virtual obs::TraceSink* trace() const = 0;

 protected:
  /// Wraps implementation words (e.g. {slot, generation}) into a handle.
  TimerHandle make_handle(std::uint64_t a, std::uint64_t b) {
    return TimerHandle(this, a, b);
  }

  /// For a Clock that keeps its timers on another Clock: forward the cancel
  /// hooks to the Clock that issued the handle's words.
  static void forward_cancel(Clock& issuer, std::uint64_t a, std::uint64_t b) {
    issuer.cancel_timer(a, b);
  }
  [[nodiscard]] static bool forward_cancelled(const Clock& issuer,
                                              std::uint64_t a,
                                              std::uint64_t b) {
    return issuer.timer_cancelled(a, b);
  }

 private:
  friend class TimerHandle;
  virtual void cancel_timer(std::uint64_t a, std::uint64_t b) = 0;
  [[nodiscard]] virtual bool timer_cancelled(std::uint64_t a,
                                             std::uint64_t b) const = 0;
};

/// Periodic callback on any Clock: fires at interval, 2*interval, ...; the
/// protocol's timers and run_experiment's tuning loop run on it. Each tick
/// re-arms before it runs, so a tick that stops the timer wins.
class PeriodicTimer {
 public:
  using Tick = std::function<void(SimTime)>;

  PeriodicTimer(Clock& clock, SimTime interval, Tick tick);

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;
  ~PeriodicTimer();

  /// Stops future ticks.
  void stop();

  [[nodiscard]] std::uint64_t ticks_fired() const { return fired_; }

 private:
  void arm();

  Clock& clock_;
  SimTime interval_;
  Tick tick_;
  TimerHandle next_;
  bool stopped_ = false;
  std::uint64_t fired_ = 0;
};

}  // namespace anu
