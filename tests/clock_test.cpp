// Tests for the clock seam (common/clock.h): TimerHandle semantics,
// PeriodicTimer on either implementation, and the realtime clock's
// dispatch order, logical now and clamping (runtime/realtime_clock.h). The
// cross-implementation behavioural guarantee — same protocol decisions on
// either clock — is tests/clock_parity_test.cpp; this file pins the
// per-clock mechanics those guarantees rest on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "runtime/realtime_clock.h"
#include "runtime/time_source.h"
#include "sim/simulation.h"

namespace anu {
namespace {

// --- TimerHandle ------------------------------------------------------------

TEST(TimerHandle, DefaultIsInvalidAndInert) {
  TimerHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(handle.cancelled());
  handle.cancel();  // no clock attached: must be a safe no-op
  EXPECT_FALSE(handle.cancelled());
}

TEST(TimerHandle, CopyCancelsTheSameTimer) {
  sim::Simulation sim;
  int fired = 0;
  TimerHandle original = sim.schedule_at(1.0, [&] { ++fired; });
  TimerHandle copy = original;
  copy.cancel();
  // Both copies observe the cancellation while the timer is pending. (After
  // the run the storage is recycled and only the copy that issued cancel()
  // remembers — querying a never-cancelled copy then is unspecified.)
  EXPECT_TRUE(copy.cancelled());
  EXPECT_TRUE(original.cancelled());
  sim.run_to_completion();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(copy.cancelled());
}

// --- PeriodicTimer ----------------------------------------------------------

TEST(PeriodicTimer, FirstTickAtIntervalThenEveryInterval) {
  sim::Simulation sim;
  std::vector<SimTime> ticks;
  PeriodicTimer timer(sim, 2.0, [&](SimTime now) { ticks.push_back(now); });
  sim.run_until(7.0);
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_DOUBLE_EQ(ticks[0], 2.0);
  EXPECT_DOUBLE_EQ(ticks[1], 4.0);
  EXPECT_DOUBLE_EQ(ticks[2], 6.0);
  EXPECT_EQ(timer.ticks_fired(), 3u);
}

TEST(PeriodicTimer, StopFromInsideTickWins) {
  sim::Simulation sim;
  int fired = 0;
  PeriodicTimer timer(sim, 1.0, [&](SimTime) {
    ++fired;
    timer.stop();  // re-arm happened first, but stop must still win
  });
  sim.run_until(10.0);
  EXPECT_EQ(fired, 1);
}

TEST(PeriodicTimer, RunsOnRealtimeClock) {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock(source);
  std::vector<SimTime> ticks;
  PeriodicTimer timer(clock, 0.25, [&](SimTime now) { ticks.push_back(now); });
  source.advance_to(1.0);
  clock.pump();
  ASSERT_EQ(ticks.size(), 4u);
  EXPECT_DOUBLE_EQ(ticks[0], 0.25);
  EXPECT_DOUBLE_EQ(ticks[3], 1.0);
}

// --- RealtimeClock dispatch order -------------------------------------------

TEST(RealtimeClock, FiresInDeadlineOrderAcrossBuckets) {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock(source);
  std::vector<std::string> order;
  // Schedule out of order, 10 ms apart.
  clock.schedule_at(0.030, [&] { order.push_back("c"); });
  clock.schedule_at(0.010, [&] { order.push_back("a"); });
  clock.schedule_at(0.020, [&] { order.push_back("b"); });
  source.advance_to(0.050);
  EXPECT_EQ(clock.pump(), 3u);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(RealtimeClock, FifoAmongEqualDeadlines) {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock(source);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    clock.schedule_at(0.010, [&order, i] { order.push_back(i); });
  }
  source.advance_to(0.020);
  clock.pump();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RealtimeClock, CallbackSchedulingAtOwnTimeRunsAfterEarlierDue) {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock(source);
  std::vector<std::string> order;
  // a fires first and schedules c at its own deadline; b was scheduled
  // earlier than c, so the order must be a, b, c — exactly the simulator's
  // (time, seq) calendar semantics.
  clock.schedule_at(0.010, [&] {
    order.push_back("a");
    clock.schedule_at(0.010, [&] { order.push_back("c"); });
  });
  clock.schedule_at(0.010, [&] { order.push_back("b"); });
  source.advance_to(0.020);
  clock.pump();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(RealtimeClock, NowInsideCallbackIsTheDeadline) {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock(source);
  SimTime observed = -1.0;
  clock.schedule_at(0.125, [&] { observed = clock.now(); });
  // The host thread wakes late — the callback must still see its deadline,
  // not the jittery wall instant.
  source.advance_to(0.500);
  clock.pump();
  EXPECT_DOUBLE_EQ(observed, 0.125);
  // Outside callbacks now() follows the source again.
  EXPECT_DOUBLE_EQ(clock.now(), 0.500);
}

TEST(RealtimeClock, PastDeadlineClampsAndFires) {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock(source);
  source.advance_to(1.0);
  SimTime observed = -1.0;
  clock.schedule_at(0.25, [&] { observed = clock.now(); });  // in the past
  clock.pump();
  EXPECT_DOUBLE_EQ(observed, 1.0);  // clamped to schedule-time now()
}

TEST(RealtimeClock, ScheduleAfterUsesLogicalNow) {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock(source);
  std::vector<SimTime> fired_at;
  clock.schedule_at(0.100, [&] {
    fired_at.push_back(clock.now());
    clock.schedule_after(0.050, [&] { fired_at.push_back(clock.now()); });
  });
  source.advance_to(0.400);
  clock.pump();
  ASSERT_EQ(fired_at.size(), 2u);
  EXPECT_DOUBLE_EQ(fired_at[0], 0.100);
  // Chained from the deadline, not from the (late) wall instant.
  EXPECT_DOUBLE_EQ(fired_at[1], 0.150);
}

// --- RealtimeClock cancellation ---------------------------------------------

TEST(RealtimeClock, CancelPreventsFiring) {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock(source);
  int fired = 0;
  TimerHandle handle = clock.schedule_at(0.010, [&] { ++fired; });
  EXPECT_DOUBLE_EQ(clock.next_deadline(), 0.010);
  handle.cancel();
  EXPECT_LT(clock.next_deadline(), 0.0);
  source.advance_to(0.100);
  EXPECT_EQ(clock.pump(), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(handle.cancelled());
}

TEST(RealtimeClock, StaleHandleCannotCancelRecycledSlot) {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock(source);
  int first = 0, second = 0;
  TimerHandle old_handle = clock.schedule_at(0.010, [&] { ++first; });
  source.advance_to(0.020);
  clock.pump();
  EXPECT_EQ(first, 1);
  // The new timer reuses the freed slot; the stale handle's generation
  // no longer matches and must not cancel it.
  clock.schedule_at(0.030, [&] { ++second; });
  old_handle.cancel();
  source.advance_to(0.050);
  clock.pump();
  EXPECT_EQ(second, 1);
}

TEST(RealtimeClock, CancelFromCallbackStopsDueSibling) {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock(source);
  int cancelled_fired = 0;
  TimerHandle victim;
  clock.schedule_at(0.010, [&] { victim.cancel(); });
  victim = clock.schedule_at(0.010, [&] { ++cancelled_fired; });
  source.advance_to(0.020);
  clock.pump();
  EXPECT_EQ(cancelled_fired, 0);
}

// --- RealtimeClock far-future deadlines -------------------------------------

TEST(RealtimeClock, OverflowTimersMigrateAndFire) {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock(source);
  // 2.0 s is far beyond the first pump's horizon: the far timer must wait
  // in the calendar through that pump and fire at the next one.
  std::vector<std::string> order;
  clock.schedule_at(2.0, [&] { order.push_back("far"); });
  clock.schedule_at(0.1, [&] { order.push_back("near"); });
  source.advance_to(1.0);
  EXPECT_EQ(clock.pump(), 1u);
  EXPECT_DOUBLE_EQ(clock.next_deadline(), 2.0);
  source.advance_to(3.0);
  EXPECT_EQ(clock.pump(), 1u);
  EXPECT_EQ(order, (std::vector<std::string>{"near", "far"}));
}

TEST(RealtimeClock, NextDeadlineTracksEarliestTimer) {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock(source);
  EXPECT_LT(clock.next_deadline(), 0.0);  // nothing armed
  clock.schedule_at(0.500, [] {});
  TimerHandle early = clock.schedule_at(0.100, [] {});
  EXPECT_DOUBLE_EQ(clock.next_deadline(), 0.100);
  early.cancel();
  EXPECT_DOUBLE_EQ(clock.next_deadline(), 0.500);
  source.advance_to(1.0);
  clock.pump();
  EXPECT_LT(clock.next_deadline(), 0.0);
}

TEST(RealtimeClock, IdlePumpAfterLongGapIsCheap) {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock(source);
  int fired = 0;
  clock.schedule_at(0.010, [&] { ++fired; });
  source.advance_to(0.020);
  clock.pump();
  // Hours of idle wall time: an empty calendar pumps straight to the new
  // horizon, with nothing to fire on the way.
  source.advance_to(3600.0);
  EXPECT_EQ(clock.pump(), 0u);
  // And a timer scheduled afterwards still fires normally.
  clock.schedule_at(3600.5, [&] { ++fired; });
  source.advance_to(3601.0);
  EXPECT_EQ(clock.pump(), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(RealtimeClock, ManyTimersDenseAndSparse) {
  runtime::ManualTimeSource source;
  runtime::RealtimeClock clock(source);
  std::vector<SimTime> fired;
  // A mix of deadlines a few milliseconds apart and far beyond them.
  for (int i = 0; i < 100; ++i) {
    const SimTime when = 0.001 * (i % 7) + 0.3 * (i % 3) + 0.05;
    clock.schedule_at(when, [&fired, &clock] { fired.push_back(clock.now()); });
  }
  source.advance_to(2.0);
  EXPECT_EQ(clock.pump(), 100u);
  EXPECT_LT(clock.next_deadline(), 0.0);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]) << "out-of-order firing at " << i;
  }
}

// --- ManualTimeSource -------------------------------------------------------

TEST(ManualTimeSource, AdvancesMonotonically) {
  runtime::ManualTimeSource source;
  EXPECT_DOUBLE_EQ(source.now(), 0.0);
  source.advance_to(1.5);
  EXPECT_DOUBLE_EQ(source.now(), 1.5);
  source.advance_by(0.5);
  EXPECT_DOUBLE_EQ(source.now(), 2.0);
  source.advance_to(2.0);  // equal is allowed
  EXPECT_DOUBLE_EQ(source.now(), 2.0);
}

TEST(SteadyTimeSource, StartsNearZeroAndMovesForward) {
  runtime::SteadyTimeSource source;
  const SimTime a = source.now();
  const SimTime b = source.now();
  EXPECT_GE(a, 0.0);
  EXPECT_LE(a, b);
  EXPECT_LT(a, 60.0);  // zeroed at construction, not at boot
}

}  // namespace
}  // namespace anu
