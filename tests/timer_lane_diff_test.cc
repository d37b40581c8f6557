// Randomized differential test of the simulation's periodic lane
// (sim/periodic_lane.h), its one engine for recurring beats. Each
// script runs twice on fresh simulations: once parking members and
// sleeping the lane for real, so parked beats are counted in bulk
// instead of dispatched, and once never parked, where every beat
// dispatches and the callback of a beat that would have been parked
// returns at once. Both runs must call the other callbacks in the same
// order at the same instants, see the same last_fire() answers, end
// each bounded run at the same clock and count the same processed
// events. The never-parked run is held in turn to a sorted oracle:
// every schedule call (a queue push, a join, a beat's successor when
// its callback returns) is noted with a running counter, and the
// dispatch order must be the uncancelled notes sorted by (time,
// order). Deterministic cases cover same-instant ties between passed
// beats and queue events, members that leave at the head of the lane,
// handles across ring growth, stale handles, the closed-form count of
// a sleeping lane, and the lane's storage under join/leave churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulation.h"

namespace mrapid::sim {
namespace {

constexpr SimDuration kPeriod = SimDuration::micros(1000);
constexpr int kQueueTag = 1000;

// One run of a random script. Every draw happens between bounded runs
// or inside a callback both modes call, so both modes draw the same
// numbers.
class Script {
 public:
  // (time us, tag, last_fire of a neighbour member or -1)
  using Record = std::tuple<std::int64_t, int, std::int64_t>;

  Script(std::uint64_t seed, bool elide)
      : rng_(0x1A7E, "periodic-lane/" + std::to_string(seed)), elide_(elide) {}

  void play(int members, int steps) {
    members_.resize(static_cast<std::size_t>(members));
    for (int m = 0; m < members; ++m) {
      // Phases on a 50 us grid: members share instants with each other
      // and with the queue events drawn on the same grid.
      join(m, SimTime::from_micros(50 * rng_.next_int(0, 20)));
      if (rng_.next_int(0, 1) == 0) set_parked(m, true);
    }
    for (int step = 0; step < steps; ++step) {
      act();
      SimTime deadline = sim_.now() + SimDuration::micros(100 * rng_.next_int(0, 30));
      if (rng_.next_int(0, 3) == 0) deadline = next_beat(pick_member());
      sim_.run_until(deadline);
      clocks_.push_back(sim_.now().as_micros());
    }
    // Drain to a fixed horizon; a stop() inside an instant ends a run
    // early, so run again until one reaches it.
    const SimTime horizon = sim_.now() + kPeriod * 3;
    do {
      stopped_ = false;
      sim_.run_until(horizon);
    } while (stopped_);
    horizon_ = horizon;
  }

  // The oracle: every uncancelled note due by the horizon, sorted by
  // (time, order). Only the never-parked run dispatches all of them.
  std::vector<int> oracle() const {
    std::vector<std::pair<std::int64_t, int>> keys;
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      const Note& n = notes_[i];
      if (!n.cancelled && n.time_us <= horizon_.as_micros()) {
        keys.emplace_back(n.time_us, static_cast<int>(i));
      }
    }
    std::sort(keys.begin(), keys.end());
    std::vector<int> out;
    for (const auto& key : keys) out.push_back(key.second);
    return out;
  }

  Simulation& sim() { return sim_; }
  const std::vector<Record>& records() const { return records_; }
  const std::vector<std::int64_t>& clocks() const { return clocks_; }
  const std::vector<int>& dispatched() const { return dispatched_; }

 private:
  struct Member {
    Simulation::LaneMember handle;
    bool joined = false;
    bool parked = false;
    std::int64_t first_us = 0;
    int pending_note = -1;  // the note of the member's next beat
  };
  struct Note {
    std::int64_t time_us;
    bool cancelled = false;
  };
  struct QueueEvent {
    EventId id;
    int note;
  };

  int note(SimTime at) {
    notes_.push_back(Note{at.as_micros()});
    return static_cast<int>(notes_.size()) - 1;
  }

  int pick_member() {
    return static_cast<int>(rng_.next_int(0, static_cast<std::int64_t>(members_.size()) - 1));
  }

  // The member's next beat at or after now (its phase, one period on).
  SimTime next_beat(int m) const {
    const Member& member = members_[static_cast<std::size_t>(m)];
    const std::int64_t now = sim_.now().as_micros();
    if (!member.joined || now <= member.first_us) {
      return SimTime::from_micros(std::max(now, member.first_us));
    }
    const std::int64_t p = kPeriod.as_micros();
    return SimTime::from_micros(member.first_us + (now - member.first_us + p - 1) / p * p);
  }

  void join(int m, SimTime first) {
    Member& member = members_[static_cast<std::size_t>(m)];
    member.joined = true;
    member.first_us = first.as_micros();
    member.pending_note = note(first);
    member.handle = sim_.join_lane(kPeriod, first, [this, m] { beat(m); });
    if (elide_) sim_.park(member.handle, member.parked);
  }

  void leave(int m) {
    Member& member = members_[static_cast<std::size_t>(m)];
    ASSERT_TRUE(sim_.leave_lane(member.handle));
    member.joined = false;
    if (member.pending_note >= 0) {
      notes_[static_cast<std::size_t>(member.pending_note)].cancelled = true;
    }
    member.pending_note = -1;
  }

  void set_parked(int m, bool parked) {
    Member& member = members_[static_cast<std::size_t>(m)];
    member.parked = parked;
    if (elide_) sim_.park(member.handle, parked);
  }

  void set_awake(bool awake) {
    awake_ = awake;
    if (elide_) sim_.set_lane_awake(awake);
  }

  void beat(int m) {
    Member& member = members_[static_cast<std::size_t>(m)];
    const Simulation::LaneMember self = member.handle;
    dispatched_.push_back(member.pending_note);
    member.pending_note = -1;
    if (member.parked && !awake_) {
      // The sleeping lane would have passed this beat.
      EXPECT_FALSE(elide_) << "a parked beat was dispatched at " << sim_.now().as_micros();
    } else {
      const Member& neighbour = members_[(static_cast<std::size_t>(m) + 1) % members_.size()];
      records_.emplace_back(sim_.now().as_micros(), m,
                            neighbour.joined ? sim_.last_fire(neighbour.handle).as_micros() : -1);
      act();
    }
    // The successor is scheduled when the callback returns, unless the
    // member left (or left and rejoined) inside it.
    if (member.joined && member.handle == self) member.pending_note = note(sim_.now() + kPeriod);
  }

  void queue_event(int index) {
    dispatched_.push_back(queue_[static_cast<std::size_t>(index)].note);
    records_.emplace_back(sim_.now().as_micros(), kQueueTag + index, -1);
    act();
  }

  void schedule(SimTime at) {
    const int index = static_cast<int>(queue_.size());
    queue_.push_back(QueueEvent{{}, note(at)});
    queue_.back().id = sim_.schedule_at(at, [this, index] { queue_event(index); });
  }

  // A few random actions.
  void act() {
    const std::int64_t actions = rng_.next_int(0, 2);
    for (std::int64_t a = 0; a < actions; ++a) {
      const std::int64_t roll = rng_.next_int(0, 99);
      const int m = pick_member();
      Member& member = members_[static_cast<std::size_t>(m)];
      if (roll < 30) {
        // A queue event on the 50 us grid, on some member's next beat,
        // or exactly one period ahead (inside a beat: on its successor).
        switch (rng_.next_int(0, 2)) {
          case 0: schedule(sim_.now() + SimDuration::micros(50 * rng_.next_int(0, 40))); break;
          case 1: schedule(next_beat(m)); break;
          default: schedule(sim_.now() + kPeriod);
        }
      } else if (roll < 48) {
        if (member.joined) set_parked(m, !member.parked);
      } else if (roll < 56) {
        set_awake(rng_.next_int(0, 2) == 0);
      } else if (roll < 61) {
        if (member.joined) leave(m);
      } else if (roll < 66) {
        if (!member.joined) join(m, sim_.now() + SimDuration::micros(50 * rng_.next_int(0, 20)));
      } else if (roll < 69) {
        stopped_ = true;
        sim_.stop();
      } else if (roll < 75 && !queue_.empty()) {
        const auto index = rng_.next_int(0, static_cast<std::int64_t>(queue_.size()) - 1);
        QueueEvent& event = queue_[static_cast<std::size_t>(index)];
        if (sim_.cancel(event.id)) notes_[static_cast<std::size_t>(event.note)].cancelled = true;
      }
    }
  }

  Simulation sim_{0x5EED};
  RngStream rng_;
  bool elide_;
  bool awake_ = false;
  bool stopped_ = false;
  SimTime horizon_;
  std::vector<Member> members_;
  std::vector<Note> notes_;
  std::vector<QueueEvent> queue_;
  std::vector<int> dispatched_;
  std::vector<Record> records_;
  std::vector<std::int64_t> clocks_;
};

TEST(TimerLaneDiffTest, RandomInterleavingsMatchSortedOracle) {
  std::uint64_t elided = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Script parked(seed, /*elide=*/true);
    Script reference(seed, /*elide=*/false);
    parked.play(8, 300);
    reference.play(8, 300);
    ASSERT_EQ(reference.dispatched(), reference.oracle()) << "seed " << seed;
    ASSERT_EQ(parked.records(), reference.records()) << "seed " << seed;
    ASSERT_EQ(parked.clocks(), reference.clocks()) << "seed " << seed;
    ASSERT_EQ(parked.sim().processed_events(), reference.sim().processed_events())
        << "seed " << seed;
    const Simulation::TimerStats& lane = parked.sim().wheel_stats();
    EXPECT_EQ(reference.sim().wheel_stats().elided, 0u);
    EXPECT_EQ(lane.fired + lane.elided, reference.sim().wheel_stats().fired) << "seed " << seed;
    elided += lane.elided;
  }
  EXPECT_GT(elided, 10'000u);  // the scripts do exercise the bulk pass
}

// A fixed scenario over two runs, recording callback tags in dispatch
// order. Members 0 and 1 share a phase; queue events carry tags >= 10.
std::vector<std::pair<std::int64_t, int>> tie_scenario(bool elide) {
  Simulation sim;
  std::vector<std::pair<std::int64_t, int>> fired;
  bool parked = true;
  auto record = [&](int tag) { fired.emplace_back(sim.now().as_micros(), tag); };
  std::vector<Simulation::LaneMember> m(2);
  for (int k = 0; k < 2; ++k) {
    m[k] = sim.join_lane(kPeriod, SimTime::from_micros(100), [&, k] {
      if (parked && !elide) return;  // would have been passed
      record(k);
    });
    if (elide) sim.park(m[k], true);
  }
  // Scheduled before the beats at 100 us are passed: sorts before
  // their successors at 1100 us.
  sim.schedule_at(SimTime::from_micros(1100), [&] { record(10); });
  sim.schedule_at(SimTime::from_micros(500), [&] {
    record(11);
    // Scheduled after the beats at 100 us were passed: sorts after
    // their successors.
    sim.schedule_at(SimTime::from_micros(1100), [&] { record(12); });
  });
  sim.schedule_at(SimTime::from_micros(1050), [&] {
    record(13);
    parked = false;
    if (elide) {
      sim.park(m[0], false);
      sim.park(m[1], false);
    }
  });
  sim.run_until(SimTime::from_micros(1100));
  return fired;
}

TEST(TimerLaneDiffTest, SameInstantKeepsSchedulingOrder) {
  // The beats at 100 us are passed in bulk; their successors at 1100 us
  // sort by the counter at that pass: after the event scheduled before
  // it (10), before the one scheduled after it (12), members in ring
  // order. Time alone would put them before 10; a sequence number
  // taken when they are compared would put them after 12.
  const std::vector<std::pair<std::int64_t, int>> expected{
      {500, 11}, {1050, 13}, {1100, 10}, {1100, 0}, {1100, 1}, {1100, 12}};
  EXPECT_EQ(tie_scenario(/*elide=*/false), expected);
  EXPECT_EQ(tie_scenario(/*elide=*/true), expected);
}

TEST(TimerLaneDiffTest, CancelledHeadIsSkipped) {
  // Members leave at the head of the lane, behind it and at its tail,
  // both while parked and not: none of them fires again.
  Simulation sim;
  std::vector<std::pair<std::int64_t, int>> fired;
  std::vector<Simulation::LaneMember> m(4);
  for (int k = 0; k < 4; ++k) {
    m[k] = sim.join_lane(kPeriod, SimTime::from_micros(100 * k),
                         [&, k] { fired.emplace_back(sim.now().as_micros(), k); });
  }
  sim.park(m[2], true);
  sim.run_until(SimTime::from_micros(50));  // member 0 fired; member 1 is the head
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_TRUE(sim.leave_lane(m[1]));  // the head
  EXPECT_TRUE(sim.leave_lane(m[2]));  // parked, behind it
  EXPECT_TRUE(sim.leave_lane(m[3]));  // the tail
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(SimTime::from_micros(2500));
  EXPECT_EQ(fired, (std::vector<std::pair<std::int64_t, int>>{{0, 0}, {1000, 0}, {2000, 0}}));
  EXPECT_EQ(sim.processed_events(), 3u);
  EXPECT_TRUE(sim.leave_lane(m[0]));
  EXPECT_TRUE(sim.idle());
}

TEST(TimerLaneDiffTest, IdsSurviveRingGrowth) {
  // 100 members join at staggered instants while beats fire, so the
  // ring is rebased and entries inserted mid-ring many times; handles
  // taken before each growth still reach their own member.
  Simulation sim;
  RngStream rng(7, "ring-growth");
  std::vector<Simulation::LaneMember> m(100);
  std::vector<int> beats(100, 0);
  for (int k = 0; k < 100; ++k) {
    const SimTime first = sim.now() + SimDuration::micros(rng.next_int(0, 1000));
    m[k] = sim.join_lane(kPeriod, first, [&beats, k] { ++beats[k]; });
    sim.run_until(sim.now() + SimDuration::micros(37));
  }
  for (int k : {3, 15, 16, 70, 99}) EXPECT_TRUE(sim.leave_lane(m[k]));
  for (int k : {4, 50}) sim.park(m[k], true);
  std::fill(beats.begin(), beats.end(), 0);
  sim.run_until(sim.now() + kPeriod * 10);
  for (int k = 0; k < 100; ++k) {
    const bool gone = k == 3 || k == 15 || k == 16 || k == 70 || k == 99 || k == 4 || k == 50;
    EXPECT_EQ(beats[k], gone ? 0 : 10) << "member " << k;
  }
  EXPECT_EQ(sim.pending_events(), 95u);
  EXPECT_EQ(sim.wheel_stats().elided, 20u);  // members 4 and 50, ten laps each
}

TEST(TimerLaneDiffTest, StaleAndForeignIdsAreRejected) {
  Simulation sim;
  int a_beats = 0, b_beats = 0;
  const Simulation::LaneMember a =
      sim.join_lane(kPeriod, SimTime::from_micros(10), [&a_beats] { ++a_beats; });
  EXPECT_TRUE(sim.leave_lane(a));
  EXPECT_FALSE(sim.leave_lane(a));  // leave after leave
  // b reuses a's slot: a's handle must not reach it.
  const Simulation::LaneMember b =
      sim.join_lane(kPeriod, SimTime::from_micros(10), [&b_beats] { ++b_beats; });
  EXPECT_EQ(sim.wheel_stats().slab_capacity, 1u);
  EXPECT_FALSE(sim.leave_lane(a));
  sim.park(a, true);
  EXPECT_FALSE(sim.leave_lane(Simulation::LaneMember{}));
  EXPECT_FALSE(sim.leave_lane(Simulation::LaneMember{b.value + 1}));
  EXPECT_FALSE(sim.cancel(EventId{b.value}));  // a member handle is no event id
  sim.run_until(SimTime::from_micros(2500));
  EXPECT_EQ(a_beats, 0);
  EXPECT_EQ(b_beats, 3);
  EXPECT_TRUE(sim.leave_lane(b));
  EXPECT_TRUE(sim.idle());
}

TEST(TimerLaneDiffTest, SelfReschedulingHeartbeatsFollowOracle) {
  // The production pattern: staggered members, a plain event one
  // period ahead every so often. First never parked, against a sorted
  // oracle of the schedule calls; then asleep, where a long bounded run
  // counts the closed-form number of beats and dispatches none.
  constexpr int kNodes = 8;
  const SimDuration period = SimDuration::seconds(1.0);
  Simulation sim;
  std::vector<std::pair<std::int64_t, int>> notes;  // (time us, order)
  std::vector<int> fired;
  std::vector<int> next_note(kNodes);
  int beats = 0;
  bool plain_events = true;
  auto note = [&](SimTime at) {
    notes.emplace_back(at.as_micros(), static_cast<int>(notes.size()));
    return static_cast<int>(notes.size()) - 1;
  };
  std::vector<Simulation::LaneMember> m(kNodes);
  for (int n = 0; n < kNodes; ++n) {
    const SimTime first = SimTime::from_micros(n * 125);
    next_note[n] = note(first);
    m[n] = sim.join_lane(period, first, [&, n] {
      fired.push_back(next_note[n]);
      if (++beats % 7 == 0 && plain_events) {
        const int order = note(sim.now() + period);
        sim.schedule_after(period, [&fired, order] { fired.push_back(order); });
      }
      next_note[n] = note(sim.now() + period);
    });
  }
  const SimTime horizon = SimTime::from_seconds(500.0);
  sim.run_until(horizon);
  std::vector<std::pair<std::int64_t, int>> due;
  for (const auto& n : notes) {
    if (n.first <= horizon.as_micros()) due.push_back(n);
  }
  std::sort(due.begin(), due.end());
  std::vector<int> expected;
  for (const auto& n : due) expected.push_back(n.second);
  ASSERT_GE(fired.size(), 4000u);
  EXPECT_EQ(fired, expected);

  // Asleep and parked: 10,000 laps pass in a handful of steps. One
  // more lap first lets the last plain events fire.
  plain_events = false;
  const SimTime base = horizon + period;
  sim.run_until(base);
  for (const auto& member : m) sim.park(member, true);
  const std::uint64_t before = sim.processed_events();
  const std::size_t fired_before = fired.size();
  const SimTime later = base + period * 10'000;
  sim.run_until(later);
  EXPECT_EQ(sim.processed_events() - before, static_cast<std::uint64_t>(kNodes) * 10'000);
  EXPECT_EQ(fired.size(), fired_before);
  EXPECT_EQ(sim.now(), later);
  for (int n = 0; n < kNodes; ++n) {
    const std::int64_t phase = n * 125;
    const std::int64_t p = period.as_micros();
    EXPECT_EQ(sim.last_fire(m[n]).as_micros(), phase + (later.as_micros() - phase) / p * p);
  }
  // Nothing can ever fire, so run() returns instead of counting beats
  // forever.
  EXPECT_EQ(sim.run(), 0u);
}

TEST(TimerLaneDiffTest, HeartbeatChurnKeepsSlabBounded) {
  // 10k-node shape in miniature: members leave and join all the time
  // (pauses, crashes) while the others beat; the lane recycles member
  // slots instead of accreting them.
  Simulation sim;
  constexpr int kNodes = 512;
  RngStream rng(11, "churn");
  std::vector<Simulation::LaneMember> m(kNodes);
  auto join = [&](int k) {
    const SimTime first = sim.now() + SimDuration::micros(rng.next_int(0, 1000));
    m[k] = sim.join_lane(kPeriod, first, [] {});
    sim.park(m[k], rng.next_int(0, 1) == 0);
  };
  for (int k = 0; k < kNodes; ++k) join(k);
  for (int step = 0; step < 2000; ++step) {
    const int k = static_cast<int>(rng.next_int(0, kNodes - 1));
    ASSERT_TRUE(sim.leave_lane(m[k]));
    join(k);
    sim.run_until(sim.now() + SimDuration::micros(rng.next_int(0, 300)));
  }
  EXPECT_EQ(sim.pending_events(), static_cast<std::size_t>(kNodes));
  EXPECT_EQ(sim.wheel_stats().slab_capacity, static_cast<std::size_t>(kNodes));
  EXPECT_EQ(sim.wheel_stats().joined, static_cast<std::uint64_t>(kNodes) + 2000);
  EXPECT_EQ(sim.wheel_stats().cancelled, 2000u);
  EXPECT_GT(sim.wheel_stats().elided, 0u);
}

}  // namespace
}  // namespace mrapid::sim
