// Randomized differential test of Simulation's timer lanes against a
// sorted oracle. Plain events (schedule_at/schedule_after) and timers
// on three recurring delays (schedule_timer) are interleaved with
// bounded runs and with cancels of live, already-fired and
// already-cancelled ids. Every schedule call is noted with a running
// counter; the oracle is those notes sorted by (time, scheduling
// order) with the cancelled ones dropped, which is the order one
// combined heap would dispatch in. Deterministic cases cover
// same-instant ties across lanes and the queue, cancels at a lane's
// head, ids that outlive ring growth, stale and foreign ids, and the
// ring's size under heartbeat churn. SimulationTest's
// MergedTimerAndQueueDispatchFollowsSchedulingOrder is a second,
// independent oracle over the same merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulation.h"

namespace mrapid::sim {
namespace {

// The three ways to schedule an event.
enum class Via { kAt, kAfter, kTimer };

// Drives one Simulation and keeps the oracle beside it.
struct Harness {
  struct Note {
    std::int64_t time_us;
    int order;
    bool cancelled = false;
    bool fired = false;
  };

  Simulation sim{0x1A7E};
  std::vector<Note> notes;  // indexed by scheduling order
  std::vector<EventId> ids;
  std::vector<int> fired;  // scheduling orders, in dispatch order

  // Schedules one event `delay` from now and notes it. The callback
  // records its own firing; `then` (optional) runs after that, so a
  // timer can reschedule itself the way a heartbeat does.
  void schedule(SimDuration delay, Via via, std::function<void()> then = nullptr) {
    const int order = static_cast<int>(notes.size());
    const SimTime at = sim.now() + delay;
    notes.push_back({at.as_micros(), order});
    auto callback = [this, order, then = std::move(then)] {
      EXPECT_EQ(sim.now().as_micros(), notes[order].time_us) << "event " << order;
      notes[order].fired = true;
      fired.push_back(order);
      if (then) then();
    };
    EventId id;
    switch (via) {
      case Via::kAt: id = sim.schedule_at(at, std::move(callback)); break;
      case Via::kAfter: id = sim.schedule_after(delay, std::move(callback)); break;
      case Via::kTimer: id = sim.schedule_timer(delay, std::move(callback)); break;
    }
    EXPECT_EQ((id.value & EventId::kTimerTag) != 0, via == Via::kTimer);
    ids.push_back(id);
  }

  // Cancels the event scheduled `order`-th; cancel() must succeed
  // exactly when the event is still pending.
  void cancel(int order) {
    Note& note = notes[order];
    const bool pending = !note.fired && !note.cancelled;
    ASSERT_EQ(sim.cancel(ids[order]), pending) << "order " << order;
    if (pending) note.cancelled = true;
  }

  std::size_t pending() const {
    return static_cast<std::size_t>(std::count_if(notes.begin(), notes.end(), [](const Note& n) {
      return !n.fired && !n.cancelled;
    }));
  }

  // The oracle: every uncancelled event, sorted by (time, order).
  std::vector<int> expected() const {
    std::vector<std::pair<std::int64_t, int>> keys;
    for (const Note& n : notes) {
      if (!n.cancelled) keys.emplace_back(n.time_us, n.order);
    }
    std::sort(keys.begin(), keys.end());
    std::vector<int> out;
    for (const auto& key : keys) out.push_back(key.second);
    return out;
  }
};

TEST(TimerLaneDiffTest, RandomInterleavingsMatchSortedOracle) {
  // Three recurring delays; plain delays are drawn on the same 100 us
  // grid, so plain events and timers from different lanes keep landing
  // on the same instant and only the scheduling order separates them.
  const std::int64_t kLaneUs[] = {0, 300, 1000};
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    RngStream rng(0x1A7E, "timer-lane-diff/" + std::to_string(seed));
    Harness h;
    for (int op = 0; op < 3000; ++op) {
      const std::int64_t roll = rng.next_int(0, 99);
      if (roll < 25) {
        const SimDuration delay = SimDuration::micros(100 * rng.next_int(0, 15));
        h.schedule(delay, rng.next_int(0, 1) == 0 ? Via::kAt : Via::kAfter);
      } else if (roll < 55) {
        const SimDuration delay = SimDuration::micros(kLaneUs[rng.next_int(0, 2)]);
        // Some timers reschedule themselves once on their own lane,
        // from inside the dispatch loop, as heartbeats do.
        if (rng.next_int(0, 3) == 0) {
          h.schedule(delay, Via::kTimer, [&h, delay] { h.schedule(delay, Via::kTimer); });
        } else {
          h.schedule(delay, Via::kTimer);
        }
      } else if (roll < 75) {
        h.sim.run_until(h.sim.now() + SimDuration::micros(rng.next_int(0, 6) * 100));
      } else if (!h.notes.empty()) {
        // Any historical event: live, already fired or already
        // cancelled.
        h.cancel(static_cast<int>(rng.next_int(0, static_cast<std::int64_t>(h.notes.size()) - 1)));
      }
      ASSERT_EQ(h.sim.pending_events(), h.pending()) << "seed " << seed << " op " << op;
    }
    h.sim.run();
    ASSERT_TRUE(h.sim.idle());
    ASSERT_EQ(h.fired, h.expected()) << "seed " << seed;
    const Simulation::TimerStats& stats = h.sim.wheel_stats();
    EXPECT_EQ(stats.scheduled, stats.fired + stats.cancelled);
    EXPECT_GT(stats.cancelled, 0u);
  }
}

TEST(TimerLaneDiffTest, SameInstantKeepsSchedulingOrder) {
  // Five events due at t = 1000 us from three lanes and the queue,
  // scheduled at three different instants: they fire in scheduling
  // order, not grouped by store or lane. The last is a zero-delay
  // timer set by the first to fire, so it goes after the three already
  // due at that instant.
  Harness h;
  h.schedule(SimDuration::micros(1000), Via::kTimer,
             [&h] { h.schedule(SimDuration::zero(), Via::kTimer); });  // lane 1000
  h.schedule(SimDuration::micros(1000), Via::kAfter);                  // queue
  h.sim.run_until(SimTime::from_micros(700));
  h.schedule(SimDuration::micros(300), Via::kTimer);  // lane 300
  h.schedule(SimDuration::micros(300), Via::kAt);     // queue
  h.sim.run();
  EXPECT_EQ(h.fired, h.expected());
  EXPECT_EQ(h.fired, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(h.notes[4].time_us, 1000);
}

TEST(TimerLaneDiffTest, CancelledHeadIsSkipped) {
  Harness h;
  for (int k = 0; k < 4; ++k) {
    h.schedule(SimDuration::micros(500), Via::kTimer);
    h.sim.run_until(h.sim.now() + SimDuration::micros(100));
  }
  h.cancel(1);  // dead record behind a live head
  h.cancel(0);  // the head: the lane skips past both
  h.cancel(3);  // the tail
  ASSERT_EQ(h.sim.pending_events(), 1u);
  h.sim.run();
  EXPECT_EQ(h.fired, (std::vector<int>{2}));
  EXPECT_TRUE(h.sim.idle());
}

TEST(TimerLaneDiffTest, IdsSurviveRingGrowth) {
  // 100 pending timers on one lane grow its ring several times; ids
  // taken before each growth still cancel the right record.
  Harness h;
  for (int k = 0; k < 100; ++k) {
    h.schedule(SimDuration::micros(1000), Via::kTimer);
    h.sim.run_until(h.sim.now() + SimDuration::micros(5));
  }
  for (int order : {3, 15, 16, 70, 99}) h.cancel(order);
  h.sim.run();
  EXPECT_EQ(h.fired, h.expected());
  EXPECT_EQ(h.fired.size(), 95u);
}

TEST(TimerLaneDiffTest, StaleAndForeignIdsAreRejected) {
  // One lap of the smallest ring (16 records), each timer fired
  // before the next is set, so the 17th reuses the first one's record.
  Harness h;
  constexpr int kLap = 16;
  for (int k = 0; k <= kLap; ++k) {
    h.schedule(SimDuration::micros(10), Via::kTimer);
    if (k < kLap) h.sim.run();
  }
  EXPECT_EQ(h.sim.wheel_stats().slab_capacity, static_cast<std::size_t>(kLap));
  h.cancel(0);  // already fired, and its record now holds a live timer
  EXPECT_EQ(h.sim.pending_events(), 1u);
  h.cancel(kLap);
  h.cancel(kLap);  // cancel after cancel
  EXPECT_TRUE(h.sim.idle());
  // A lane that does not exist, and a position never issued.
  EXPECT_FALSE(h.sim.cancel(EventId{EventId::kTimerTag | (5ull << 56)}));
  EXPECT_FALSE(h.sim.cancel(EventId{h.ids[kLap].value + 1}));
  // The same bits without the tag are a queue id, never a timer's.
  EXPECT_FALSE(h.sim.cancel(EventId{h.ids[kLap].value & ~EventId::kTimerTag}));
  h.sim.run();
  EXPECT_EQ(h.fired, h.expected());
}

TEST(TimerLaneDiffTest, SelfReschedulingHeartbeatsFollowOracle) {
  // The production pattern: staggered first beats through the queue,
  // then each beat schedules its successor one period ahead on the
  // lane, with a plain event on the same instant every so often.
  Harness h;
  constexpr int kNodes = 8;
  const SimDuration period = SimDuration::seconds(1.0);
  std::function<void()> beat = [&] {
    if (h.fired.size() < 4000) {
      h.schedule(period, Via::kTimer, beat);
      if (h.fired.size() % 7 == 0) h.schedule(period, Via::kAfter);
    }
  };
  for (int n = 0; n < kNodes; ++n) {
    h.schedule(SimDuration::micros(n * 125), Via::kAfter, beat);
  }
  h.sim.run();
  ASSERT_GE(h.fired.size(), 4000u);
  EXPECT_EQ(h.fired, h.expected());
}

TEST(TimerLaneDiffTest, HeartbeatChurnKeepsSlabBounded) {
  // 10k-node shape: N self-rescheduling timers over many laps must
  // recycle ring records, not accrete them.
  Simulation sim;
  constexpr int kNodes = 512;
  int beats = 0;
  std::function<void()> beat = [&] {
    if (++beats < 20 * kNodes) sim.schedule_timer(SimDuration::seconds(1.0), beat);
  };
  for (int n = 0; n < kNodes; ++n) sim.schedule_after(SimDuration::micros(n), beat);
  sim.run_until(SimTime::from_seconds(10.0));
  EXPECT_EQ(sim.pending_events(), static_cast<std::size_t>(kNodes));
  EXPECT_LE(sim.wheel_stats().slab_capacity, 2u * kNodes);
  sim.run();
  EXPECT_EQ(beats, 20 * kNodes + kNodes - 1);
}

}  // namespace
}  // namespace mrapid::sim
