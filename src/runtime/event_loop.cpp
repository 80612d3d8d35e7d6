#include "runtime/event_loop.h"

#include <poll.h>

#include <cmath>
#include <utility>

#include "common/assert.h"

namespace anu::runtime {

void EventLoop::add_fd(int fd, std::function<void()> on_readable) {
  ANU_REQUIRE(fd >= 0);
  ANU_REQUIRE(on_readable != nullptr);
  pollset_.push_back(pollfd{fd, POLLIN, 0});
  callbacks_.push_back(std::move(on_readable));
}

std::size_t EventLoop::run_once(double max_wait) {
  ANU_REQUIRE(max_wait >= 0.0);
  double wait = max_wait;
  const SimTime deadline = clock_.next_deadline();
  if (deadline >= 0.0) {
    const double until = deadline - clock_.now();
    if (until < wait) wait = until;
  }
  if (wait < 0.0) wait = 0.0;

  for (pollfd& entry : pollset_) entry.revents = 0;
  const int timeout_ms = static_cast<int>(std::ceil(wait * 1e3));
  const int ready = ::poll(pollset_.data(), pollset_.size(), timeout_ms);

  std::size_t handled = 0;
  if (ready > 0) {
    for (std::size_t i = 0; i < pollset_.size(); ++i) {
      if ((pollset_[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        callbacks_[i]();
        ++handled;
      }
    }
  }
  handled += clock_.pump();
  return handled;
}

void EventLoop::run_until(const std::function<bool()>& done, double max_wait) {
  while (!done()) run_once(max_wait);
}

}  // namespace anu::runtime
