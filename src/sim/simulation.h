#pragma once

// The discrete-event simulation driver.
//
// Single-threaded by design: determinism comes from the stable event
// order plus named RNG streams (common/rng.h). Pending events live in
// two stores: the EventQueue heap for one-off callbacks and one FIFO
// lane per recurring delay for timers (schedule_timer). A timer set at
// now + d for a fixed d is appended in (time, seq) order, because now
// never decreases and sequence numbers only grow, so a lane is sorted
// by construction and needs no heap, wheel or per-slot sort. Both
// stores draw sequence numbers from one counter and run_until merges
// the queue head with the lane heads on (time, seq), so they dispatch
// as a single ordered queue would. tests/timer_lane_diff_test.cc holds
// this to a sorted oracle. Components hold a Simulation& and schedule
// callbacks; there is no global state.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
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

  // For recurring delays (heartbeats, liveness polls): appends to the
  // FIFO lane for `delay`, created on first use. The timer is stamped
  // with the next sequence number of the shared (time, seq) order, so
  // it dispatches exactly where a schedule_after at this instant would.
  // A simulation holds only a few lanes (asserted): one-off delays
  // belong on schedule_after.
  EventId schedule_timer(SimDuration delay, EventCallback callback, EventLabel label = {});

  // Returns true if the event existed and had neither fired nor been
  // cancelled. Timer ids carry EventId::kTimerTag; queue ids never do.
  bool cancel(EventId id) {
    if ((id.value & EventId::kTimerTag) != 0) return cancel_timer(id);
    return queue_.cancel(id);
  }

  // Runs until the event queue drains or stop() is called. Returns the
  // number of events processed by this call.
  std::uint64_t run();

  // Runs events with time <= deadline; the clock ends at
  // min(deadline, last event time). Returns events processed.
  std::uint64_t run_until(SimTime deadline);

  // Request the current run()/run_until() to return after the active
  // event finishes.
  void stop() { stop_requested_ = true; }

  bool idle() const { return queue_.empty() && timers_live_ == 0; }
  std::uint64_t processed_events() const { return processed_; }

  // Lifetime counters of the timer lanes. slab_capacity counts the
  // ring records allocated across all lanes.
  struct TimerStats {
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::size_t slab_capacity = 0;
  };

  // Event-core counters (pushed/fired/cancelled, heap peak, slab
  // capacity) — the exp layer's sim_core benchmark and perfbench
  // report these; wheel_stats() keeps the name perfbench's metrics use
  // (sim.wheel_fired, sim.wheel_cancelled).
  const EventQueue::Stats& queue_stats() const { return queue_.stats(); }
  const TimerStats& wheel_stats() const { return timer_stats_; }
  std::size_t pending_events() const { return queue_.size() + timers_live_; }

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
  Tracer* tracer() const { return tracer_; }
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  struct TransparentStringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  // The pending timers of one recurring delay. Records sit in a
  // power-of-two ring indexed by absolute position (ids stay valid
  // across growth); [head, tail) holds the unfired ones in (time, seq)
  // order. Cancellation is lazy: a cancelled record stays in place,
  // marked dead, until it reaches the head, which is always live or
  // equal to tail.
  struct TimerLane {
    struct Record {
      SimTime time;
      std::uint64_t seq = 0;
      EventCallback callback;
      EventLabel label;
      bool live = false;
    };
    SimDuration delay;
    std::vector<Record> ring;
    std::uint64_t head = 0;
    std::uint64_t tail = 0;

    Record& at(std::uint64_t pos) { return ring[pos & (ring.size() - 1)]; }
    void skip_dead() {
      while (head != tail && !at(head).live) ++head;
    }
  };

  // A timer id is kTimerTag | lane index << kLaneShift | position.
  // Positions are never reused, so an id that fired or was cancelled
  // is rejected without a generation stamp.
  static constexpr int kLaneShift = 56;
  static constexpr std::uint64_t kPositionMask = (1ull << kLaneShift) - 1;
  static constexpr std::size_t kMaxLanes = 16;

  bool cancel_timer(EventId id);
  void grow(TimerLane& lane);
  // The lane whose head comes first on (time, seq); null when no timer
  // is pending.
  TimerLane* earliest_lane();
  EventQueue::Fired pop_timer(TimerLane& lane);

  EventQueue queue_;
  std::vector<TimerLane> lanes_;
  std::size_t timers_live_ = 0;
  TimerStats timer_stats_;
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
