// Tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulation.h"

namespace anu::sim {
namespace {

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, SimultaneousEventsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_to_completion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation sim;
  double seen = -1.0;
  sim.schedule_at(5.5, [&] { seen = sim.now(); });
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(seen, 5.5);
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  double seen = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_after(3.0, [&] { seen = sim.now(); });
  });
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  const auto ran = sim.run_until(5.0);
  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, EventExactlyAtHorizonRuns) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  int fired = 0;
  auto handle = sim.schedule_at(1.0, [&] { ++fired; });
  handle.cancel();
  EXPECT_TRUE(handle.cancelled());
  sim.run_to_completion();
  EXPECT_EQ(fired, 0);
}

TEST(Simulation, CancelFromInsideEarlierEvent) {
  Simulation sim;
  int fired = 0;
  auto victim = sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(1.0, [&] { victim.cancel(); });
  sim.run_to_completion();
  EXPECT_EQ(fired, 0);
}

TEST(Simulation, StopHaltsLoop) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run_to_completion();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, EventsExecutedCounter) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run_to_completion();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulation, PreRunStopIsHonored) {
  // Regression: a stop() issued outside a run used to be cleared silently
  // at the top of run_until, so the next run proceeded as if the request
  // never happened. It must instead halt that run before its first event.
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.stop();
  EXPECT_EQ(sim.run_until(5.0), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);  // clock untouched by a stopped run
  EXPECT_EQ(sim.pending_events(), 1u);
  // The request is consumed: the next run proceeds normally.
  EXPECT_EQ(sim.run_until(5.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulation, SelfCancelDuringInvokeDoesNotLeakToNextTenant) {
  // An action cancelling its own handle while running marks a slot that is
  // recycled immediately afterwards; the flag must not carry over and
  // silently cancel the slot's next tenant.
  Simulation sim;
  TimerHandle self;
  int fired = 0;
  self = sim.schedule_at(1.0, [&] { self.cancel(); });
  sim.run_to_completion();
  sim.schedule_at(2.0, [&] { ++fired; });  // reuses the recycled slot
  sim.run_to_completion();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, SlabSlotsAreRecycled) {
  // Sequential schedule/run cycles must reuse one slot, not grow the slab.
  Simulation sim;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_at(static_cast<double>(i), [] {});
    sim.run_until(static_cast<double>(i));
  }
  EXPECT_EQ(sim.queue_stats().slab_high_water, 1u);
}

TEST(Simulation, QueueStatsAreConsistent) {
  Simulation sim;
  std::vector<TimerHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sim.schedule_at(static_cast<double>(i % 10), [] {}));
  }
  for (int i = 0; i < 100; i += 2) {
    handles[static_cast<std::size_t>(i)].cancel();
  }
  sim.run_to_completion();
  const SimQueueStats stats = sim.queue_stats();
  EXPECT_EQ(stats.scheduled, 100u);
  EXPECT_EQ(stats.executed, 50u);
  EXPECT_EQ(stats.cancelled_skipped, 50u);
  EXPECT_EQ(stats.max_pending, 100u);
  EXPECT_EQ(stats.slab_high_water, 100u);
  // Indices sharing a timestamp share its parity, so odd timestamps keep
  // all ten of their events live after the even-index cancellations.
  EXPECT_EQ(stats.max_simultaneous, 10u);
  EXPECT_EQ(stats.executed + stats.cancelled_skipped, stats.scheduled);
}

TEST(Simulation, NextEventTimeSkipsCancelledHead) {
  Simulation sim;
  EXPECT_EQ(sim.next_event_time(), std::nullopt);  // empty calendar

  TimerHandle first = sim.schedule_at(1.0, [] {});
  TimerHandle second = sim.schedule_at(2.0, [] {});
  int fired = 0;
  sim.schedule_at(3.0, [&] { ++fired; });
  first.cancel();
  second.cancel();
  // The earliest live event, found past two cancelled heads, which are
  // discarded and counted as run_until would; the clock stays put.
  EXPECT_EQ(sim.next_event_time(), std::optional<SimTime>(3.0));
  EXPECT_EQ(sim.now(), 0.0);
  SimQueueStats stats = sim.queue_stats();
  EXPECT_EQ(stats.cancelled_skipped, 2u);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(stats.scheduled,
            stats.executed + stats.cancelled_skipped + sim.pending_events());

  sim.run_to_completion();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.next_event_time(), std::nullopt);

  // Every pending event cancelled: nothing is due, and the calendar drains.
  TimerHandle last = sim.schedule_at(4.0, [] {});
  last.cancel();
  EXPECT_EQ(sim.next_event_time(), std::nullopt);
  stats = sim.queue_stats();
  EXPECT_EQ(stats.cancelled_skipped, 3u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(stats.scheduled,
            stats.executed + stats.cancelled_skipped + sim.pending_events());
}

TEST(Simulation, LargeSimultaneousBatchStaysFifo) {
  // Thousands of events at one timestamp: the ladder cannot subdivide the
  // range, so ordering rests entirely on the seq tie-break.
  Simulation sim;
  std::vector<int> order;
  order.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_to_completion();
  ASSERT_EQ(order.size(), 4096u);
  for (int i = 0; i < 4096; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(sim.queue_stats().max_simultaneous, 4096u);
}

// ---------------------------------------------------------------------------
// The stream item: one re-armable event beside the calendar.

/// One script of schedule_at calls and stream arms, run either with the
/// stream or with every arm made as a schedule_at instead. Timestamps come
/// from a grid of quarter seconds, so most events tie with others, and
/// arms are made at top level, from stream actions and from calendar
/// actions. What each firing does is a pure function of its label.
class StreamScript {
 public:
  explicit StreamScript(bool use_stream) : use_stream_(use_stream) {
    if (use_stream_) sim_.set_stream([this] { fire_stream(stream_label_); });
  }

  std::vector<std::pair<SimTime, std::uint64_t>> run() {
    Xoshiro256 rng(2024);
    std::uint64_t next_root = 1;
    std::vector<TimerHandle> handles;
    for (int phase = 0; phase < 200; ++phase) {
      for (std::uint64_t i = 0, n = rng.next_below(12); i < n; ++i) {
        const std::uint64_t label = next_root++ << 8;
        handles.push_back(sim_.schedule_at(
            sim_.now() + 0.25 * static_cast<double>(rng.next_below(4)),
            [this, label] { fire_event(label); }));
      }
      if (!armed_) arm(sim_.now() + 0.25 * static_cast<double>(rng.next_below(3)));
      if (!handles.empty() && rng.next_below(3) == 0) {
        handles[rng.next_below(handles.size())].cancel();
      }
      sim_.run_until(sim_.now() + 0.25 * static_cast<double>(rng.next_below(3)));
    }
    sim_.run_to_completion();
    return fired_;
  }

  [[nodiscard]] SimQueueStats stats() const { return sim_.queue_stats(); }

 private:
  static constexpr std::uint64_t kStreamBit = 1ull << 63;
  static constexpr std::uint64_t kStreamChildBit = 1ull << 62;

  void arm(SimTime when) {
    armed_ = true;
    const std::uint64_t label = kStreamBit | (++arms_ << 8);
    if (use_stream_) {
      stream_label_ = label;
      sim_.arm_stream(when);
    } else {
      sim_.schedule_at(when, [this, label] { fire_stream(label); });
    }
  }

  void fire_stream(std::uint64_t label) {
    armed_ = false;
    fired_.emplace_back(sim_.now(), label);
    const std::uint64_t h = mix64(label);
    if (h & 1) spawn((label ^ kStreamBit) | kStreamChildBit, h >> 1);
    // Re-arm from inside the stream's own action, often at now().
    if ((h & 6) != 0) arm(sim_.now() + 0.25 * static_cast<double>((h >> 8) & 1));
  }

  void fire_event(std::uint64_t label) {
    fired_.emplace_back(sim_.now(), label);
    const std::uint64_t h = mix64(label);
    spawn(label, h);
    // Arm from inside a calendar action.
    if (!armed_ && (h & 0x30) == 0) {
      arm(sim_.now() + 0.25 * static_cast<double>((h >> 12) & 1));
    }
  }

  /// Up to two calendar children at now() or a quarter second later, for
  /// two generations. A label's low four bits are its depth and the next
  /// four the path to it, so every label is unique.
  void spawn(std::uint64_t label, std::uint64_t h) {
    const std::uint64_t depth = label & 0xf;
    if (depth >= 2) return;
    for (std::uint64_t k = 0; k < (h & 3) && k < 2; ++k) {
      const std::uint64_t child = label + 1 + (k << (4 + depth));
      sim_.schedule_at(sim_.now() + 0.25 * static_cast<double>((h >> (4 + k)) & 1),
                       [this, child] { fire_event(child); });
    }
  }

  const bool use_stream_;
  Simulation sim_;
  std::vector<std::pair<SimTime, std::uint64_t>> fired_;
  bool armed_ = false;
  std::uint64_t arms_ = 0;
  std::uint64_t stream_label_ = 0;
};

TEST(SimulationStream, FiresWhereAScheduleAtWouldHave) {
  StreamScript with_stream(true);
  StreamScript with_events(false);
  const auto a = with_stream.run();
  const auto b = with_events.run();
  ASSERT_GT(a.size(), 2000u);
  ASSERT_EQ(a.size(), b.size());
  std::size_t stream_firings = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "firing " << i;
    stream_firings += a[i].second >> 63;  // the stream's labels
  }
  EXPECT_GT(stream_firings, 200u);
  const SimQueueStats s = with_stream.stats();
  const SimQueueStats e = with_events.stats();
  EXPECT_EQ(s.scheduled, e.scheduled);
  EXPECT_EQ(s.executed, e.executed);
  EXPECT_EQ(s.cancelled_skipped, e.cancelled_skipped);
  EXPECT_EQ(s.max_pending, e.max_pending);
  EXPECT_EQ(s.max_simultaneous, e.max_simultaneous);
  EXPECT_GT(s.max_simultaneous, 5u);
  EXPECT_LT(s.slab_high_water, e.slab_high_water);
  EXPECT_EQ(s.scheduled, s.executed + s.cancelled_skipped);
  // rung_spills, top_transfers and bottom_sorts count the ladder's own
  // work, which differs when one event of the script never enters it.
}

TEST(SimulationStream, CountsAsAPendingEvent) {
  Simulation sim;
  sim.set_stream([] {});
  TimerHandle early = sim.schedule_at(1.0, [] {});
  TimerHandle late = sim.schedule_at(3.0, [] {});
  sim.arm_stream(2.0);
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.queue_stats().max_pending, 3u);  // raised by the arm itself
  EXPECT_EQ(sim.next_event_time(), std::optional<SimTime>(1.0));

  // A cancelled head ahead of the stream is discarded on the way to it; a
  // cancelled event behind it is left for run_until to skip.
  early.cancel();
  late.cancel();
  EXPECT_EQ(sim.next_event_time(), std::optional<SimTime>(2.0));
  SimQueueStats stats = sim.queue_stats();
  EXPECT_EQ(stats.cancelled_skipped, 1u);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(stats.scheduled, 3u);
  EXPECT_EQ(stats.max_pending, 3u);
  EXPECT_EQ(stats.slab_high_water, 2u);  // the stream holds no slot
  EXPECT_EQ(stats.scheduled,
            stats.executed + stats.cancelled_skipped + sim.pending_events());

  sim.run_to_completion();
  stats = sim.queue_stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.cancelled_skipped, 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.next_event_time(), std::nullopt);
  EXPECT_EQ(sim.now(), 2.0);
}

TEST(SimulationStream, StopFromTheStreamActionHaltsTheRun) {
  Simulation sim;
  int streamed = 0;
  int after = 0;
  sim.set_stream([&] {
    ++streamed;
    sim.stop();
  });
  sim.arm_stream(1.0);
  sim.schedule_at(1.0, [&] { ++after; });  // same time, later sequence
  EXPECT_EQ(sim.run_until(5.0), 1u);
  EXPECT_EQ(streamed, 1);
  EXPECT_EQ(after, 0);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run_until(5.0), 1u);
  EXPECT_EQ(after, 1);
}

TEST(SimulationStream, RunUntilStopsShortOfAnArmedItem) {
  Simulation sim;
  std::vector<SimTime> fired;
  sim.set_stream([&] {
    fired.push_back(sim.now());
    if (fired.size() < 3) sim.arm_stream(sim.now() + 2.0);
  });
  sim.arm_stream(5.0);
  EXPECT_EQ(sim.run_until(4.0), 0u);
  EXPECT_EQ(sim.now(), 4.0);  // an armed item is pending: clock to horizon
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.next_event_time(), std::optional<SimTime>(5.0));
  EXPECT_EQ(sim.run_until(5.0), 1u);  // an item at exactly `until` fires
  EXPECT_EQ(sim.run_to_completion(), 2u);
  EXPECT_EQ(fired, (std::vector<SimTime>{5.0, 7.0, 9.0}));
  EXPECT_EQ(sim.now(), 9.0);  // drained: the clock stays at the last event
  EXPECT_EQ(sim.queue_stats().slab_high_water, 0u);
}

TEST(SimulationStream, ArmingInThePastOrTwiceAborts) {
  EXPECT_DEATH(
      {
        Simulation sim;
        sim.set_stream([] {});
        sim.schedule_at(2.0, [] {});
        sim.run_to_completion();
        sim.arm_stream(1.0);
      },
      "precondition");
  EXPECT_DEATH(
      {
        Simulation sim;
        sim.set_stream([] {});
        sim.arm_stream(1.0);
        sim.arm_stream(2.0);
      },
      "precondition");
}

TEST(Simulation, CancelAfterFireIsNoop) {
  Simulation sim;
  int fired = 0;
  auto handle = sim.schedule_at(1.0, [&] { ++fired; });
  sim.run_to_completion();
  EXPECT_EQ(fired, 1);
  handle.cancel();  // must not crash or double-count
  EXPECT_TRUE(handle.cancelled());
}

TEST(Simulation, SchedulingInThePastAborts) {
  Simulation sim;
  sim.schedule_at(5.0, [] {});
  sim.run_to_completion();
  EXPECT_DEATH(sim.schedule_at(1.0, [] {}), "precondition");
}

TEST(Simulation, RunUntilIsResumable) {
  Simulation sim;
  std::vector<int> fired;
  sim.schedule_at(1.0, [&] { fired.push_back(1); });
  sim.schedule_at(3.0, [&] { fired.push_back(3); });
  sim.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  sim.run_until(4.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(Simulation, RunUntilNeverMovesTheClockBackwards) {
  Simulation sim;
  std::vector<int> fired;
  sim.schedule_at(5.0, [&] { fired.push_back(5); });
  sim.schedule_at(9.0, [&] { fired.push_back(9); });
  sim.run_until(6.0);
  EXPECT_DOUBLE_EQ(sim.now(), 6.0);
  // A horizon behind the clock, with an event still pending.
  EXPECT_EQ(sim.run_until(2.0), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 6.0);
  // Earlier than the event already fired at 5.0.
  EXPECT_DEATH(sim.schedule_at(3.0, [] {}), "precondition");
  sim.run_to_completion();
  EXPECT_EQ(fired, (std::vector<int>{5, 9}));
}

TEST(Simulation, ClockAdvancesToHorizonWithoutEvents) {
  Simulation sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulation, DeterministicUnderHeavyInterleaving) {
  auto run = [] {
    Simulation sim;
    std::vector<std::uint64_t> order;
    for (std::uint64_t i = 0; i < 200; ++i) {
      sim.schedule_at(static_cast<double>(i % 7), [&order, i] {
        order.push_back(i);
      });
    }
    sim.run_to_completion();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace anu::sim
