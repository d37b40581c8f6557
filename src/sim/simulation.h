#pragma once

// The discrete-event simulation driver.
//
// Single-threaded by design: determinism comes from the stable event
// order plus named RNG streams (common/rng.h). Pending events live in
// two stores: the EventQueue heap for one-off callbacks and the
// TimerWheel for periodic timers (schedule_timer). Both draw sequence
// numbers from one counter and run_until merges their heads on
// (time, seq), so the pair dispatches as a single ordered queue would.
// Components hold a Simulation& and schedule callbacks; there is no
// global state.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

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

  // For periodic, batch-friendly events (heartbeats, liveness polls):
  // lands in the hierarchical timer wheel (sim/timer_wheel.h). The
  // wheel entry is stamped with the next sequence number of the shared
  // (time, seq) order, and run_until merges the wheel head with the
  // queue head on that key, so timers and plain events dispatch
  // exactly as one combined heap would order them.
  EventId schedule_timer(SimDuration delay, EventCallback callback, EventLabel label = {});

  bool cancel(EventId id) {
    if (TimerWheel::is_wheel_id(id)) return wheel_.cancel(id);
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

  bool idle() const { return queue_.empty() && wheel_.empty(); }
  std::uint64_t processed_events() const { return processed_; }

  // Event-core counters (pushed/fired/cancelled, heap peak, slab
  // capacity) — the exp layer's sim_core benchmark reports these.
  const EventQueue::Stats& queue_stats() const { return queue_.stats(); }
  const TimerWheel::Stats& wheel_stats() const { return wheel_.stats(); }
  std::size_t pending_events() const { return queue_.size() + wheel_.size(); }

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

  EventQueue queue_;
  TimerWheel wheel_;
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
