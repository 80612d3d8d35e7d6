#include "runtime/realtime_clock.h"

#include <algorithm>
#include <utility>

namespace anu::runtime {

SimTime RealtimeClock::now() const {
  if (firing_) return calendar_.now();
  return std::max(source_.now(), calendar_.now());
}

anu::TimerHandle RealtimeClock::schedule_at(SimTime when, Action action) {
  return calendar_.schedule_at(std::max(when, now()), std::move(action));
}

std::size_t RealtimeClock::pump() {
  const SimTime horizon = now();
  firing_ = true;
  const std::uint64_t fired = calendar_.run_until(horizon);
  firing_ = false;
  return static_cast<std::size_t>(fired);
}

SimTime RealtimeClock::next_deadline() {
  return calendar_.next_event_time().value_or(-1.0);
}

}  // namespace anu::runtime
