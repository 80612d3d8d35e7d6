// Minimal poll(2) reactor for the realtime runtime.
//
// One loop owns one RealtimeClock and any number of readable fds (the UDP
// transport's sockets, a client-facing socket, ...). Each iteration:
// compute the poll timeout from the clock's next deadline, sleep in
// poll(), dispatch readable-fd callbacks, then pump the clock so due
// timers fire. Everything runs on the calling thread — the runtime keeps
// the simulator's single-threaded execution model, it just sleeps for real.
#pragma once

#include <poll.h>

#include <functional>
#include <vector>

#include "runtime/realtime_clock.h"

namespace anu::runtime {

class EventLoop {
 public:
  explicit EventLoop(RealtimeClock& clock) : clock_(clock) {}

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers a callback invoked whenever `fd` is readable.
  void add_fd(int fd, std::function<void()> on_readable);

  /// One poll + dispatch + clock pump, waiting at most `max_wait` seconds
  /// (clamped down to the clock's next deadline). Returns the number of
  /// timers fired plus fds dispatched.
  std::size_t run_once(double max_wait);

  /// Runs until `done()` returns true (checked once per iteration).
  void run_until(const std::function<bool()>& done, double max_wait = 0.05);

  [[nodiscard]] RealtimeClock& clock() { return clock_; }

 private:
  RealtimeClock& clock_;
  /// One entry per add_fd, kept between iterations so polling allocates
  /// nothing; callbacks_[i] serves pollset_[i].
  std::vector<pollfd> pollset_;
  std::vector<std::function<void()>> callbacks_;
};

}  // namespace anu::runtime
