// Differential tests for the ladder-queue event kernel.
//
// The ladder queue's ordering contract is exact — ascending (time, seq),
// FIFO at equal times — and the rest of the tree leans on it for seeded
// reproducibility. These tests check the contract two ways: the LadderQueue
// against a sort of the same keys, and the full Simulation (slab, handles,
// cancellation, clock rules) against a deliberately naive reference model
// that stores pending events in a flat vector and min-scans per dispatch.
// Both run over randomized operation sequences across many seeds; any
// divergence in fired order, clocks, or counters is a kernel bug. The
// Simulation's stream item is in the mix: the model keeps it as one more
// event in its vector, so the two must agree on where it fires.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace anu::sim {
namespace {

// ---------------------------------------------------------------------------
// LadderQueue vs a sorted copy of the same keys.

struct RefKey {
  SimTime time;
  std::uint64_t seq;
  std::uint32_t slot;
};

bool ref_before(const RefKey& a, const RefKey& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

/// Draws times from regimes that stress distinct queue paths: wide uniform
/// spreads (top transfers + rung scatters), dense clusters (deep
/// refinement), exact ties (FIFO + zero-width guard), and a far-future
/// outlier mixed with near-term work (skewed epochs).
SimTime draw_time(Xoshiro256& rng, double base) {
  switch (rng.next_below(6)) {
    case 0:
      return base + rng.next_double() * 1e4;
    case 1:
      return base + rng.next_double() * 1e-6;
    case 2:
      return base + static_cast<double>(rng.next_below(4));  // integer ties
    case 3:
      return base;  // exact tie at the batch base
    case 4:
      return base + 1e7 * (1.0 + rng.next_double());  // far future
    default:
      return base + rng.next_double();
  }
}

TEST(LadderQueue, MatchesSortedReferenceAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Xoshiro256 rng(seed);
    LadderQueue queue;
    std::vector<RefKey> reference;
    std::uint64_t seq = 0;
    double clock = 0.0;
    // Alternate push bursts and pop bursts so pushes interleave with a
    // partially drained ladder (the rung-descent and sorted-bottom-insert
    // paths), not just a fresh queue.
    for (int phase = 0; phase < 20; ++phase) {
      const std::uint64_t pushes = rng.next_below(400);
      for (std::uint64_t i = 0; i < pushes; ++i) {
        const SimTime t = draw_time(rng, clock);
        const auto slot = static_cast<std::uint32_t>(seq);
        queue.push(t, seq, slot);
        reference.push_back({t, seq, slot});
        ++seq;
      }
      std::sort(reference.begin(), reference.end(), ref_before);
      std::uint64_t pops = rng.next_below(300);
      pops = std::min<std::uint64_t>(pops, queue.size());
      for (std::uint64_t i = 0; i < pops; ++i) {
        const RefKey expect = reference.front();
        reference.erase(reference.begin());
        const EventKey got = queue.pop();
        ASSERT_EQ(got.time, expect.time) << "seed " << seed;
        ASSERT_EQ(got.seq, expect.seq) << "seed " << seed;
        ASSERT_EQ(got.slot, expect.slot) << "seed " << seed;
        clock = got.time;  // pushes must never go behind the last pop
      }
      ASSERT_EQ(queue.size(), reference.size());
    }
    // Drain and check the tail.
    while (!queue.empty()) {
      const RefKey expect = reference.front();
      reference.erase(reference.begin());
      const EventKey got = queue.pop();
      ASSERT_EQ(got.time, expect.time) << "seed " << seed;
      ASSERT_EQ(got.seq, expect.seq) << "seed " << seed;
    }
    EXPECT_TRUE(reference.empty());
  }
}

TEST(LadderQueue, MinIsStableAndDropMinPops) {
  LadderQueue queue;
  queue.push(2.0, 0, 0);
  queue.push(1.0, 1, 1);
  queue.push(1.0, 2, 2);
  EXPECT_EQ(queue.min().seq, 1u);
  EXPECT_EQ(queue.min().seq, 1u);  // min() is idempotent
  queue.drop_min();
  EXPECT_EQ(queue.min().seq, 2u);
  queue.drop_min();
  EXPECT_EQ(queue.min().time, 2.0);
  queue.drop_min();
  EXPECT_TRUE(queue.empty());
}

TEST(LadderQueue, ManyTiedTimestampsStayFifo) {
  // A whole epoch at one timestamp exercises the zero-width spill guard:
  // the range cannot be subdivided, so everything must sort by seq alone.
  LadderQueue queue;
  for (std::uint64_t i = 0; i < 5000; ++i) queue.push(7.0, i, 0);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(queue.pop().seq, i);
  }
  EXPECT_TRUE(queue.empty());
}

// ---------------------------------------------------------------------------
// Simulation vs a naive reference model, lockstep over random operations.
//
// The model mirrors Simulation's documented semantics only — never its
// implementation: a flat vector of pending events min-scanned per dispatch,
// with the same clock-advance rule for bounded runs.

struct ModelEvent {
  SimTime time;
  std::uint64_t seq;
  std::uint32_t id;
  bool cancelled;
};

std::vector<std::pair<SimTime, std::uint32_t>> spawn_children(
    std::uint32_t parent);

/// Labels of stream firings carry this bit; their low bits count the arms.
constexpr std::uint32_t kStreamLabel = 1u << 31;

/// Whether firing `label` arms the stream when it is disarmed, and after
/// what delay: a pure function shared by the Simulation and the model.
std::optional<SimTime> stream_arm_delay(std::uint32_t label) {
  const std::uint64_t h = mix64(label ^ 0x5eedull);
  if ((h & 3) != 0) return std::nullopt;
  return static_cast<double>((h >> 8) & 3) * 0.25;  // 0 ties with now()
}

class ModelSim {
 public:
  /// Arms the stream item: one more event in the vector, not cancellable.
  void arm_stream(SimTime when) {
    stream_armed_ = true;
    schedule(when, kStreamLabel | ++stream_arms_);
  }
  [[nodiscard]] bool stream_armed() const { return stream_armed_; }

  std::uint64_t schedule(SimTime when, std::uint32_t id) {
    events_.push_back({when, next_seq_, id, false});
    ++next_seq_;
    return next_seq_ - 1;
  }

  void cancel(std::uint64_t seq) {
    for (ModelEvent& ev : events_) {
      if (ev.seq == seq) ev.cancelled = true;
    }
  }

  /// Returns fired (id, time) pairs, matching Simulation::run_until's
  /// dispatch order and clock rule. Fired events spawn children through
  /// spawn_children — the same pure function the Simulation callbacks use.
  std::vector<std::pair<std::uint32_t, SimTime>> run_until(SimTime until) {
    std::vector<std::pair<std::uint32_t, SimTime>> fired;
    for (;;) {
      const std::size_t best = min_index();
      if (best == events_.size()) break;
      if (events_[best].time > until) break;
      const ModelEvent ev = events_[best];
      events_.erase(events_.begin() +
                    static_cast<std::ptrdiff_t>(best));
      if (ev.cancelled) {
        ++cancelled_skipped_;
        continue;
      }
      now_ = ev.time;
      fired.emplace_back(ev.id, ev.time);
      ++executed_;
      if (ev.id & kStreamLabel) stream_armed_ = false;
      for (const auto& [delay, child_id] : spawn_children(ev.id)) {
        schedule(now_ + delay, child_id);
      }
      if (!stream_armed_) {
        if (const auto delay = stream_arm_delay(ev.id)) {
          arm_stream(now_ + *delay);
        }
      }
    }
    if (events_.empty()) {
      if (until > now_ && until != std::numeric_limits<SimTime>::infinity()) {
        now_ = until;
      }
    } else {
      now_ = until;
    }
    return fired;
  }

  /// Matches Simulation::next_event_time: the earliest live event's time,
  /// discarding (and counting) cancelled events ahead of it.
  std::optional<SimTime> next_event_time() {
    for (;;) {
      const std::size_t best = min_index();
      if (best == events_.size()) return std::nullopt;
      if (!events_[best].cancelled) return events_[best].time;
      events_.erase(events_.begin() + static_cast<std::ptrdiff_t>(best));
      ++cancelled_skipped_;
    }
  }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return events_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::uint64_t cancelled_skipped() const {
    return cancelled_skipped_;
  }

 private:
  /// Index of the (time, seq)-minimal pending event; size() when none.
  [[nodiscard]] std::size_t min_index() const {
    std::size_t best = events_.size();
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (best == events_.size() || events_[i].time < events_[best].time ||
          (events_[i].time == events_[best].time &&
           events_[i].seq < events_[best].seq)) {
        best = i;
      }
    }
    return best;
  }

  std::vector<ModelEvent> events_;
  bool stream_armed_ = false;
  std::uint32_t stream_arms_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_skipped_ = 0;
  SimTime now_ = 0.0;
};

/// Children an event spawns when it fires: a pure function of the parent
/// id, so the Simulation callback and the model replay generate identical
/// schedules without sharing state.
std::vector<std::pair<SimTime, std::uint32_t>> spawn_children(
    std::uint32_t parent) {
  std::vector<std::pair<SimTime, std::uint32_t>> out;
  const std::uint64_t h = mix64(parent);
  if (parent >= 1u << 20) return out;  // bound the cascade depth
  if ((h & 7) == 0) {
    out.emplace_back(static_cast<double>((h >> 8) & 1023) * 1e-3,
                     (parent << 2) | 1u);
  }
  if ((h & 15) == 1) {
    out.emplace_back(0.0, (parent << 2) | 2u);  // child at now(): same-time
    out.emplace_back(1.0 + static_cast<double>((h >> 16) & 255),
                     (parent << 2) | 3u);
  }
  return out;
}

/// With `peek`, each phase also asks both sides for the next event time
/// before running, so cancelled heads are discarded ahead of the clock and
/// later pushes can land earlier than the last pop.
void run_differential_fuzz(std::uint64_t seed, bool peek = false) {
  Xoshiro256 rng(seed);
  Simulation sim;
  ModelSim model;

  std::vector<std::pair<std::uint32_t, SimTime>> sim_fired;
  // Handles for cancellation, parallel arrays on both sides.
  std::vector<TimerHandle> handles;
  std::vector<std::uint64_t> model_seqs;

  // In-callback behavior: record the firing, schedule this id's children,
  // then arm the stream if it is disarmed and the id says so. Children
  // recurse through the same callback, and so does the stream.
  struct Recorder {
    Simulation& sim;
    std::vector<std::pair<std::uint32_t, SimTime>>& fired;
    bool stream_armed = false;
    std::uint32_t stream_arms = 0;
    std::uint32_t stream_label = 0;

    void fire(std::uint32_t id) {
      fired.emplace_back(id, sim.now());
      if (id & kStreamLabel) stream_armed = false;
      for (const auto& [delay, child] : spawn_children(id)) {
        const std::uint32_t c = child;
        sim.schedule_after(delay, [this, c] { fire(c); });
      }
      if (!stream_armed) {
        if (const auto delay = stream_arm_delay(id)) arm(sim.now() + *delay);
      }
    }
    void arm(SimTime when) {
      stream_armed = true;
      stream_label = kStreamLabel | ++stream_arms;
      sim.arm_stream(when);
    }
  };
  Recorder recorder{sim, sim_fired};
  sim.set_stream([&recorder] { recorder.fire(recorder.stream_label); });

  // Root ids are small, so roots can cascade: children take id
  // parent*4 + k, and spawn_children stops the recursion once ids pass
  // 2^20 (about ten generations deep from these roots).
  std::uint32_t next_id = 1;
  for (int phase = 0; phase < 12; ++phase) {
    const std::uint64_t roots = rng.next_below(200);
    for (std::uint64_t i = 0; i < roots; ++i) {
      const SimTime t = draw_time(rng, sim.now());
      const std::uint32_t id = next_id++;
      handles.push_back(sim.schedule_at(t, [&recorder, id] {
        recorder.fire(id);
      }));
      model_seqs.push_back(model.schedule(t, id));
    }
    // Arm a disarmed stream at top level too; both sides agree on whether
    // it is armed as long as they agree on what fired.
    ASSERT_EQ(recorder.stream_armed, model.stream_armed()) << "seed " << seed;
    if (!recorder.stream_armed && rng.next_below(2) == 0) {
      const SimTime t = draw_time(rng, sim.now());
      recorder.arm(t);
      model.arm_stream(t);
    }
    // Cancel a random sample of everything ever scheduled; stale handles
    // (already fired) must be harmless no-ops on both sides.
    const std::uint64_t cancels = rng.next_below(40);
    for (std::uint64_t i = 0; i < cancels && !handles.empty(); ++i) {
      const std::uint64_t pick = rng.next_below(handles.size());
      handles[pick].cancel();
      model.cancel(model_seqs[pick]);
    }
    // Random horizon: sometimes exactly the current clock (fires only
    // events at now), sometimes far ahead, occasionally to completion.
    SimTime until;
    const std::uint64_t kind = rng.next_below(4);
    if (kind == 0) {
      until = sim.now();
    } else if (kind == 3) {
      until = std::numeric_limits<SimTime>::infinity();
    } else {
      until = sim.now() + rng.next_double() * 2e4;
    }
    if (peek) {
      ASSERT_EQ(sim.next_event_time(), model.next_event_time())
          << "seed " << seed;
      ASSERT_EQ(sim.pending_events(), model.pending()) << "seed " << seed;
    }
    sim_fired.clear();
    sim.run_until(until);
    const auto model_fired = model.run_until(until);
    ASSERT_EQ(sim_fired.size(), model_fired.size()) << "seed " << seed;
    for (std::size_t i = 0; i < sim_fired.size(); ++i) {
      ASSERT_EQ(sim_fired[i].first, model_fired[i].first)
          << "seed " << seed << " index " << i;
      ASSERT_EQ(sim_fired[i].second, model_fired[i].second)
          << "seed " << seed << " index " << i;
    }
    ASSERT_EQ(sim.now(), model.now()) << "seed " << seed;
    ASSERT_EQ(sim.pending_events(), model.pending()) << "seed " << seed;
    ASSERT_EQ(sim.events_executed(), model.executed()) << "seed " << seed;
  }
  const SimQueueStats stats = sim.queue_stats();
  EXPECT_EQ(stats.executed, model.executed());
  EXPECT_EQ(stats.cancelled_skipped, model.cancelled_skipped());
  EXPECT_GT(recorder.stream_arms, 0u) << "seed " << seed;
}

TEST(SimulationDifferentialFuzz, MatchesReferenceModelAcross64Seeds) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    run_differential_fuzz(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SimulationDifferentialFuzz, NextEventTimeMatchesReferenceModel) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    run_differential_fuzz(seed, /*peek=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace anu::sim
