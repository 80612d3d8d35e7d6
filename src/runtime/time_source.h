// Where the realtime clock reads "now" from.
//
// RealtimeClock (realtime_clock.h) does not call std::chrono directly; it
// reads a TimeSource to decide how far its calendar may run. Production
// uses SteadyTimeSource (monotonic wall time, zeroed at construction so
// runtime timestamps look like simulation timestamps). Tests use
// ManualTimeSource, which advances only when told — that is what lets
// tests/clock_parity_test.cpp pump the *realtime* clock deadline by
// deadline through a deterministic script, and lets tests hand the event
// loop a timer that is already due.
#pragma once

#include <chrono>

#include "common/assert.h"
#include "common/types.h"

namespace anu::runtime {

class TimeSource {
 public:
  TimeSource() = default;
  TimeSource(const TimeSource&) = delete;
  TimeSource& operator=(const TimeSource&) = delete;
  virtual ~TimeSource() = default;

  /// Monotonic seconds. The epoch is implementation-defined (steady source:
  /// its own construction), only differences and ordering matter.
  [[nodiscard]] virtual SimTime now() const = 0;
};

/// Real monotonic time, zeroed at construction.
class SteadyTimeSource final : public TimeSource {
 public:
  SteadyTimeSource() : origin_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] SimTime now() const override {
    const auto elapsed = std::chrono::steady_clock::now() - origin_;
    return std::chrono::duration<double>(elapsed).count();
  }

 private:
  std::chrono::steady_clock::time_point origin_;
};

/// Test time: stands still until advanced, never goes backwards.
class ManualTimeSource final : public TimeSource {
 public:
  [[nodiscard]] SimTime now() const override { return now_; }

  void advance_to(SimTime t) {
    ANU_REQUIRE(t >= now_);
    now_ = t;
  }
  void advance_by(SimTime delta) {
    ANU_REQUIRE(delta >= 0.0);
    now_ += delta;
  }

 private:
  SimTime now_ = 0.0;
};

}  // namespace anu::runtime
