#pragma once

// The periodic lane: the simulation's one engine for recurring timers
// (NodeManager heartbeats). Every member beats at a fixed period from
// its own phase, and a beat re-arms at +period right after it fires,
// so while membership is unchanged the members fire in one fixed
// cyclic order. The lane keeps that order explicitly, as a ring, and
// numbers beats with an absolute cursor: beat k is ring entry k mod N
// in lap k / N, at the entry's lap-0 time plus (k / N) periods.
//
// A member can be *parked*: its owner vouches that its beat would
// change nothing. While the lane is asleep (not woken), the dispatcher
// passes parked beats without calling them. Before each real dispatch,
// and at a run_until deadline, the cursor jumps over every parked beat
// that comes earlier: whole laps by arithmetic, the partial lap by
// binary search on the lap-0 times. Each passed beat still counts as a
// processed event. Waking the lane makes every beat dispatch again.
//
// Order. Every pending event has a (time, key). A queue event with
// sequence number q has key 2q + 1. A dispatched beat re-arms with a
// fresh sequence number taken after its callback returns, exactly as
// a schedule_after at that point would, so its successor's key is
// also 2q + 1. A passed beat takes no sequence number; its successor
// gets the *virtual* key 2c, where c is the counter value when the
// cursor passed it. That sorts it after every event with a lower
// sequence number and before every event with sequence number >= c,
// which is where the beat's successor would have sorted had the beat
// been dispatched. The lane keeps a log of (cursor position, counter)
// covering the last lap, so the virtual key of the head beat can be
// recovered when it ties with a queue event at the same microsecond.
//
// Membership changes are rare. A leave only marks its entry dead; the
// next use of the ring drops every dead entry in one pass, so tearing
// down N members costs O(N). A join rebases the ring so the head is
// entry 0 and resolves every key, in O(N), except at the instant no
// beat has fired yet (cluster boot), where it appends in O(1).

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace mrapid::sim {

class PeriodicLane {
 public:
  // A member handle: (generation << 32) | (slot + 1). {0} is invalid,
  // and a handle of a member that left stops matching.
  struct Member {
    std::uint64_t value = 0;
    constexpr bool valid() const { return value != 0; }
    friend constexpr bool operator==(Member a, Member b) { return a.value == b.value; }
  };

  // Lifetime counters. fired counts dispatched beats, elided the
  // beats passed in bulk; slab_capacity counts member slots.
  struct Stats {
    std::uint64_t joined = 0;
    std::uint64_t fired = 0;
    std::uint64_t elided = 0;
    std::uint64_t cancelled = 0;  // members that left
    std::size_t slab_capacity = 0;
  };

  // Adds a member whose first beat is at `first`, in [now, now +
  // period]. `seq` is the sequence number the join takes: the first
  // beat sorts exactly where a schedule_at(first) here would. All
  // members share one period. A new member is not parked.
  Member join(SimDuration period, SimTime now, SimTime first, std::uint64_t seq,
              EventCallback callback, EventLabel label);
  // Removes a member; false if the handle is stale.
  bool leave(Member member);
  bool contains(Member member) const;

  void set_parked(Member member, bool parked);
  // Awake, every beat dispatches; asleep, parked beats are passed.
  void set_awake(bool awake) { awake_ = awake; }

  // Time of the member's latest beat the cursor has passed (fired or
  // elided); its join time while it has had none.
  SimTime last_fire(Member member) const;

  bool empty() const { return size() == 0; }
  std::size_t size() const { return ring_.size() - dead_; }
  const Stats& stats() const { return stats_; }

  // ---- the dispatcher's side (Simulation::run_until) ----------------
  // True when some beat can dispatch: the lane is awake or a member is
  // unparked. Otherwise every future beat would be passed.
  bool fireable() const { return !empty() && (awake_ || unparked_ > 0); }
  // Passes the parked beats that come before the queue event (time,
  // seq), or, when `seq` is kThrough, every parked beat at or before
  // `time`. `counter` is the next sequence number the queue would
  // hand out. Returns the number of beats passed. A sleeping lane with
  // no unparked member must not be passed to SimTime::max().
  static constexpr std::uint64_t kThrough = UINT64_MAX;
  std::uint64_t pass_parked(SimTime time, std::uint64_t seq, std::uint64_t counter);
  // The next beat's time (the lane must not be empty), and whether it
  // comes before the bound pass_parked takes.
  SimTime head_time();
  bool head_before(SimTime time, std::uint64_t seq);

  // Dispatching the head beat: pop_head() advances the cursor and lends
  // out the member's callback; rearm() hands it back after the call,
  // with the sequence number the beat's successor takes. A member that
  // left during its own beat is not re-armed (contains() is false).
  struct Beat {
    SimTime time;
    Member member;
    EventCallback callback;
    EventLabel label;
  };
  Beat pop_head();
  void rearm(Beat& beat, std::uint64_t seq);

 private:
  struct Slot {
    EventCallback callback;
    EventLabel label;
    SimTime last_fire;        // latest beat before the last rebase, or the join time
    std::uint32_t gen = 0;
    std::uint32_t index = 0;  // ring index while a member
    bool member = false;
    bool parked = false;
  };
  // One ring entry: the member's beat in lap 0 and the order key of
  // its beat in lap `key_lap`. A beat whose entry holds the key of an
  // earlier lap had its predecessor passed; its key is in the log.
  struct Entry {
    std::int64_t time_us;
    std::uint64_t key;
    std::uint64_t key_lap;
    std::uint32_t slot;
  };
  // Beats up to `end` (exclusive) that the cursor passed in bulk, with
  // the counter value at the time; beats below the previous entry's
  // end belong to earlier entries.
  struct Pass {
    std::uint64_t end;
    std::uint64_t counter;
  };
  static constexpr std::uint64_t kNone = UINT64_MAX;
  static constexpr std::uint32_t kDead = UINT32_MAX;  // Entry::slot of a member that left
  static constexpr std::uint64_t real_key(std::uint64_t seq) { return 2 * seq + 1; }

  Member handle(std::uint32_t slot) const;
  Slot* find(Member member);
  const Slot* find(Member member) const;
  SimTime time_of(std::uint64_t beat) const;
  // The key of a beat less than one lap past the cursor.
  std::uint64_t key_of(std::uint64_t beat) const;
  bool before(std::uint64_t beat, SimTime time, std::uint64_t key) const;
  // First beat >= pos_ at or after `time_us`.
  std::uint64_t first_at(std::int64_t time_us) const;
  // First beat >= pos_ whose (time, key) is not before (time, key),
  // when every beat before it is passed at `counter`.
  std::uint64_t first_not_before(SimTime time, std::uint64_t key, std::uint64_t counter) const;
  // First unparked beat >= pos_, or kNone.
  std::uint64_t next_unparked() const;
  // Drops the entries of members that left (rebasing first).
  void compact() {
    if (dead_ != 0) drop_dead();
  }
  void drop_dead();
  // Makes the head entry 0 and pos_ 0, resolving every key.
  void rebase();
  // Re-derives slot indices and the unparked bitset from the ring.
  void reindex();

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> ring_;
  std::vector<std::uint64_t> unparked_bits_;  // by ring index
  std::size_t unparked_ = 0;
  std::size_t dead_ = 0;  // ring entries of members that left
  std::deque<Pass> log_;
  std::uint64_t pos_ = 0;  // the next beat
  std::int64_t period_us_ = 0;
  bool awake_ = false;
  Stats stats_;
};

}  // namespace mrapid::sim
