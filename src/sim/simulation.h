#pragma once

// The discrete-event simulation driver.
//
// Single-threaded by design: determinism comes from the stable event
// order plus named RNG streams (common/rng.h). Pending events live in
// two stores: the EventQueue heap for one-off callbacks and the
// periodic lane (sim/periodic_lane.h) for recurring beats such as NM
// heartbeats. Both draw sequence numbers from one counter and
// run_until merges the queue head with the lane head on (time, key),
// so they dispatch as a single ordered queue would. Beats whose owner
// parked them are passed in bulk instead of dispatched while the lane
// sleeps; each still counts as a processed event.
// tests/timer_lane_diff_test.cc holds the lane to a never-parked run
// and to a sorted oracle. Components hold a Simulation& and schedule
// callbacks; there is no global state.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/periodic_lane.h"
#include "sim/time.h"

namespace mrapid::sim {

class Tracer;

class Simulation {
 public:
  explicit Simulation(std::uint64_t master_seed = 0x5EED);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  // Labels are cheap non-owning (prefix, literal) pairs — see
  // sim/event_queue.h. They are materialised into a string only while
  // a tracer is attached (current_event_label()); detached runs never
  // build one.
  EventId schedule_at(SimTime at, EventCallback callback, EventLabel label = {});
  EventId schedule_after(SimDuration delay, EventCallback callback, EventLabel label = {});
  // Convenience: fire "immediately", i.e. after the current event, at
  // the same simulated instant.
  EventId schedule_now(EventCallback callback, EventLabel label = {});

  // Returns true if the event existed and had neither fired nor been
  // cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  // ---- the periodic lane (sim/periodic_lane.h) ----------------------
  // A member beats every `period` (one period per simulation) from
  // `first_beat`, which lies in [now, now + period]. Joining takes a
  // sequence number, so the first beat sorts exactly where a
  // schedule_at(first_beat) here would; each dispatched beat re-arms
  // with a sequence number taken after its callback returns.
  using LaneMember = PeriodicLane::Member;
  LaneMember join_lane(SimDuration period, SimTime first_beat, EventCallback callback,
                       EventLabel label = {});
  // False if the member already left.
  bool leave_lane(LaneMember member) { return lane_.leave(member); }
  // A parked member vouches that its beat would change nothing: while
  // the lane sleeps, its beats are counted instead of dispatched.
  void park(LaneMember member, bool parked) { lane_.set_parked(member, parked); }
  // An awake lane dispatches every beat.
  void set_lane_awake(bool awake) { lane_.set_awake(awake); }
  // The member's latest processed beat (dispatched or counted), or its
  // join time before its first.
  SimTime last_fire(LaneMember member) const { return lane_.last_fire(member); }

  // Runs until the event queue drains or stop() is called. Returns the
  // number of events processed by this call, counted beats included.
  // A lane whose every member is parked beats forever without firing
  // anything, so it does not keep run() going.
  std::uint64_t run();

  // Runs events with time <= deadline; the clock ends at
  // min(deadline, last event time). Returns events processed.
  std::uint64_t run_until(SimTime deadline);

  // Request the current run()/run_until() to return after the active
  // event finishes.
  void stop() { stop_requested_ = true; }

  bool idle() const { return queue_.empty() && lane_.empty(); }
  std::uint64_t processed_events() const { return processed_; }

  // Lifetime counters of the periodic lane: dispatched (fired) and
  // counted (elided) beats, joins, leaves (cancelled), member slots.
  using TimerStats = PeriodicLane::Stats;

  // Event-core counters (pushed/fired/cancelled, heap peak, slab
  // capacity) and periodic-lane counters. perfbench reports both, and
  // wheel_stats() keeps the name its metrics use (sim.wheel_fired,
  // sim.wheel_cancelled); the sim_core engine variants report the
  // queue's.
  const EventQueue::Stats& queue_stats() const { return queue_.stats(); }
  const TimerStats& wheel_stats() const { return lane_.stats(); }
  std::size_t pending_events() const { return queue_.size() + lane_.size(); }

  // Label of the event currently being dispatched, materialised only
  // while a tracer is attached (empty otherwise). Debug/trace aid.
  const std::string& current_event_label() const { return current_label_; }

  // Named deterministic RNG stream, created on first use. The same
  // (master seed, name) always yields the same sequence. Lookup is
  // heterogeneous: a string_view probe never allocates; the key string
  // is built only when a new stream is inserted.
  RngStream& rng(std::string_view name);
  std::uint64_t master_seed() const { return master_seed_; }

  // Trace observer (sim/trace.h). Not owned; null (the default) means
  // tracing is off and MRAPID_TRACE sites cost one pointer test.
  // Attaching or detaching wakes the lane: a parked beat is one that
  // changes nothing, and what a tracer records is a change, so the
  // lane's owner decides afresh at the next beat.
  Tracer* tracer() const { return tracer_; }
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    lane_.set_awake(true);
  }

 private:
  struct TransparentStringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  EventQueue queue_;
  PeriodicLane lane_;
  SimTime now_ = SimTime::zero();
  bool stop_requested_ = false;
  std::uint64_t processed_ = 0;
  std::uint64_t master_seed_;
  Tracer* tracer_ = nullptr;
  std::string current_label_;
  std::unordered_map<std::string, RngStream, TransparentStringHash, std::equal_to<>>
      rng_streams_;
};

}  // namespace mrapid::sim
