// Tests for the poll(2) reactor behind anu_serve (runtime/event_loop.h):
// readable fds dispatch their callbacks, and the clock's next deadline
// bounds the poll timeout, so a due timer never waits out max_wait.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>

#include "runtime/event_loop.h"
#include "runtime/realtime_clock.h"
#include "runtime/time_source.h"

namespace anu::runtime {
namespace {

/// A pipe whose ends close with the test.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
};

TEST(EventLoop, ReadablePipeRunsItsCallback) {
  ManualTimeSource source;
  RealtimeClock clock(source);
  EventLoop loop(clock);
  Pipe pipe;
  int reads = 0;
  loop.add_fd(pipe.fds[0], [&] {
    char byte = 0;
    EXPECT_EQ(::read(pipe.fds[0], &byte, 1), 1);
    EXPECT_EQ(byte, 'x');
    ++reads;
  });

  EXPECT_EQ(loop.run_once(0.0), 0u);  // nothing written yet
  EXPECT_EQ(reads, 0);
  const char byte = 'x';
  ASSERT_EQ(::write(pipe.fds[1], &byte, 1), 1);
  EXPECT_EQ(loop.run_once(5.0), 1u);
  EXPECT_EQ(reads, 1);
}

TEST(EventLoop, DueTimerFiresWithoutWaitingOutMaxWait) {
  ManualTimeSource source;
  RealtimeClock clock(source);
  EventLoop loop(clock);
  Pipe pipe;  // registered but never written: poll can only time out
  loop.add_fd(pipe.fds[0], [] { FAIL() << "pipe was never written"; });
  int fired = 0;
  clock.schedule_at(0.5, [&] { ++fired; });
  source.advance_to(1.0);  // the timer is already due

  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(loop.run_once(30.0), 1u);
  const std::chrono::duration<double> waited =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(fired, 1);
  EXPECT_LT(waited.count(), 10.0);  // a zero poll timeout, not 30 s
}

}  // namespace
}  // namespace anu::runtime
