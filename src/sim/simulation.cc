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

EventId Simulation::schedule_timer(SimDuration delay, EventCallback callback, EventLabel label) {
  assert(delay >= SimDuration::zero());
  // The wheel entry takes the next sequence number of the shared
  // (time, seq) order, so run_until's merge dispatches it exactly
  // where a queue push at this instant would have landed.
  return wheel_.schedule(now_ + delay, queue_.take_seq(), std::move(callback), label);
}

std::uint64_t Simulation::run() { return run_until(SimTime::max()); }

std::uint64_t Simulation::run_until(SimTime deadline) {
  stop_requested_ = false;
  std::uint64_t fired = 0;
  while (!stop_requested_) {
    EventQueue::Fired event;
    if (wheel_.empty()) {
      // Hot path: no timers outstanding, only the queue can fire.
      if (queue_.empty() || queue_.next_time() > deadline) break;
      event = queue_.pop();
    } else {
      // Merge the queue head and the wheel head on the shared global
      // (time, seq) key — exactly the order one combined heap would
      // dispatch in.
      const EventQueue::NextKey qk = queue_.next_key();
      const TimerWheel::Key wk = wheel_.next_key();
      const bool wheel_first = wk.time != qk.time ? wk.time < qk.time : wk.seq < qk.seq;
      const SimTime head = wheel_first ? wk.time : qk.time;
      if (head > deadline || head == SimTime::max()) break;
      event = wheel_first ? wheel_.pop() : queue_.pop();
    }
    now_ = event.time;
    // Tracer-gated: the label string only ever exists under a tracer.
    if (tracer_ != nullptr) current_label_ = event.label.str();
    ++fired;
    ++processed_;
    if (event.callback) event.callback();
  }
  // Advance the clock to the deadline when nothing fires before it
  // (whether the queues are empty or their heads lie beyond the
  // deadline), so repeated bounded runs make progress.
  if (!stop_requested_ && deadline != SimTime::max() && now_ < deadline) {
    const SimTime queue_head = queue_.next_time();
    const SimTime wheel_head = wheel_.empty() ? SimTime::max() : wheel_.next_key().time;
    if (std::min(queue_head, wheel_head) > deadline) now_ = deadline;
  }
  return fired;
}

RngStream& Simulation::rng(std::string_view name) {
  auto it = rng_streams_.find(name);  // heterogeneous: no temporary string
  if (it == rng_streams_.end()) {
    it = rng_streams_.emplace(std::string(name), RngStream(master_seed_, name)).first;
  }
  return it->second;
}

}  // namespace mrapid::sim
