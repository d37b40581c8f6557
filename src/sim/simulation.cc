#include "sim/simulation.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace mrapid::sim {

Simulation::Simulation(std::uint64_t master_seed) : master_seed_(master_seed) {
  // The time source is thread-local (common/log.h): worlds running in
  // parallel sweep workers each stamp their own thread's log lines.
  Logger::instance().set_time_source([this] { return now_.as_seconds(); });
}

Simulation::~Simulation() { Logger::instance().set_time_source(nullptr); }

EventId Simulation::schedule_at(SimTime at, EventCallback callback, EventLabel label) {
  assert(at >= now_ && "cannot schedule into the past");
  return queue_.push(at, std::move(callback), label);
}

EventId Simulation::schedule_after(SimDuration delay, EventCallback callback, EventLabel label) {
  assert(delay >= SimDuration::zero());
  return schedule_at(now_ + delay, std::move(callback), label);
}

EventId Simulation::schedule_now(EventCallback callback, EventLabel label) {
  return schedule_at(now_, std::move(callback), label);
}

Simulation::LaneMember Simulation::join_lane(SimDuration period, SimTime first_beat,
                                             EventCallback callback, EventLabel label) {
  return lane_.join(period, now_, first_beat, queue_.take_seq(), std::move(callback), label);
}

std::uint64_t Simulation::run() { return run_until(SimTime::max()); }

std::uint64_t Simulation::run_until(SimTime deadline) {
  stop_requested_ = false;
  std::uint64_t processed = 0;
  while (!stop_requested_) {
    const EventQueue::NextKey next = queue_.next_key();
    const bool queue_due = next.time <= deadline && next.time != SimTime::max();
    if (!lane_.empty()) {
      // Pass the parked beats that come before the next real dispatch:
      // the queue head, else everything up to the deadline.
      const SimTime bound = queue_due ? next.time : deadline;
      const std::uint64_t bound_seq = queue_due ? next.seq : PeriodicLane::kThrough;
      if (!queue_due && deadline == SimTime::max() && !lane_.fireable()) break;
      const std::uint64_t passed = lane_.pass_parked(bound, bound_seq, queue_.next_seq());
      processed += passed;
      processed_ += passed;
      if (lane_.head_before(bound, bound_seq)) {
        PeriodicLane::Beat beat = lane_.pop_head();
        now_ = beat.time;
        if (tracer_ != nullptr) current_label_ = beat.label.str();
        ++processed;
        ++processed_;
        beat.callback();
        // The successor's sequence number is taken after the callback,
        // as a schedule_after at its end would take it.
        if (lane_.contains(beat.member)) lane_.rearm(beat, queue_.take_seq());
        continue;
      }
    }
    if (!queue_due) break;
    EventQueue::Fired event = queue_.pop();
    now_ = event.time;
    // Tracer-gated: the label string only ever exists under a tracer.
    if (tracer_ != nullptr) current_label_ = event.label.str();
    ++processed;
    ++processed_;
    if (event.callback) event.callback();
  }
  // Advance the clock to the deadline when nothing fires before it
  // (whether the stores are empty or their heads lie beyond the
  // deadline), so repeated bounded runs make progress.
  if (!stop_requested_ && deadline != SimTime::max() && now_ < deadline) {
    const SimTime lane_head = lane_.empty() ? SimTime::max() : lane_.head_time();
    if (std::min(queue_.next_time(), lane_head) > deadline) now_ = deadline;
  }
  return processed;
}

RngStream& Simulation::rng(std::string_view name) {
  auto it = rng_streams_.find(name);  // heterogeneous: no temporary string
  if (it == rng_streams_.end()) {
    it = rng_streams_.emplace(std::string(name), RngStream(master_seed_, name)).first;
  }
  return it->second;
}

}  // namespace mrapid::sim
