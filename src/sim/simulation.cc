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
  std::size_t index = 0;
  while (index < lanes_.size() && lanes_[index].delay != delay) ++index;
  if (index == lanes_.size()) {
    assert(lanes_.size() < kMaxLanes &&
           "schedule_timer is for recurring delays; use schedule_after for one-off ones");
    lanes_.emplace_back().delay = delay;
  }
  TimerLane& lane = lanes_[index];
  if (lane.tail - lane.head == lane.ring.size()) grow(lane);
  const SimTime at = now_ + delay;
  assert((lane.head == lane.tail || lane.at(lane.tail - 1).time <= at) && "lane out of order");
  TimerLane::Record& record = lane.at(lane.tail);
  record.time = at;
  // The next sequence number of the shared (time, seq) order: the
  // timer dispatches exactly where a queue push would have landed.
  record.seq = queue_.take_seq();
  record.callback = std::move(callback);
  record.label = label;
  record.live = true;
  ++timers_live_;
  ++timer_stats_.scheduled;
  return EventId{EventId::kTimerTag | (static_cast<std::uint64_t>(index) << kLaneShift) |
                 lane.tail++};
}

void Simulation::grow(TimerLane& lane) {
  std::vector<TimerLane::Record> ring(std::max<std::size_t>(16, 2 * lane.ring.size()));
  const std::uint64_t mask = ring.size() - 1;
  for (std::uint64_t pos = lane.head; pos != lane.tail; ++pos) {
    ring[pos & mask] = std::move(lane.at(pos));
  }
  timer_stats_.slab_capacity += ring.size() - lane.ring.size();
  lane.ring = std::move(ring);
}

bool Simulation::cancel_timer(EventId id) {
  const std::uint64_t index = (id.value & ~EventId::kTimerTag) >> kLaneShift;
  const std::uint64_t pos = id.value & kPositionMask;
  if (index >= lanes_.size()) return false;
  TimerLane& lane = lanes_[index];
  if (pos < lane.head || pos >= lane.tail) return false;  // fired, skipped or never issued
  TimerLane::Record& record = lane.at(pos);
  if (!record.live) return false;  // already cancelled
  record.live = false;
  record.callback = nullptr;  // release captured state promptly
  --timers_live_;
  ++timer_stats_.cancelled;
  lane.skip_dead();
  return true;
}

Simulation::TimerLane* Simulation::earliest_lane() {
  TimerLane* best = nullptr;
  for (TimerLane& lane : lanes_) {
    if (lane.head == lane.tail) continue;
    if (best == nullptr) {
      best = &lane;
      continue;
    }
    const TimerLane::Record& a = lane.at(lane.head);
    const TimerLane::Record& b = best->at(best->head);
    if (a.time != b.time ? a.time < b.time : a.seq < b.seq) best = &lane;
  }
  return best;
}

EventQueue::Fired Simulation::pop_timer(TimerLane& lane) {
  TimerLane::Record& record = lane.at(lane.head);
  EventQueue::Fired fired{record.time, std::move(record.callback), record.label};
  record.callback = nullptr;
  ++lane.head;
  lane.skip_dead();
  --timers_live_;
  ++timer_stats_.fired;
  return fired;
}

std::uint64_t Simulation::run() { return run_until(SimTime::max()); }

std::uint64_t Simulation::run_until(SimTime deadline) {
  stop_requested_ = false;
  std::uint64_t fired = 0;
  while (!stop_requested_) {
    EventQueue::Fired event;
    if (timers_live_ == 0) {
      // Hot path: no timers outstanding, only the queue can fire.
      if (queue_.empty() || queue_.next_time() > deadline) break;
      event = queue_.pop();
    } else {
      // Merge the queue head and the earliest lane head on the shared
      // global (time, seq) key — exactly the order one combined heap
      // would dispatch in.
      TimerLane& lane = *earliest_lane();
      const TimerLane::Record& timer = lane.at(lane.head);
      const EventQueue::NextKey qk = queue_.next_key();
      const bool timer_first = timer.time != qk.time ? timer.time < qk.time : timer.seq < qk.seq;
      const SimTime head = timer_first ? timer.time : qk.time;
      if (head > deadline || head == SimTime::max()) break;
      event = timer_first ? pop_timer(lane) : queue_.pop();
    }
    now_ = event.time;
    // Tracer-gated: the label string only ever exists under a tracer.
    if (tracer_ != nullptr) current_label_ = event.label.str();
    ++fired;
    ++processed_;
    if (event.callback) event.callback();
  }
  // Advance the clock to the deadline when nothing fires before it
  // (whether the stores are empty or their heads lie beyond the
  // deadline), so repeated bounded runs make progress.
  if (!stop_requested_ && deadline != SimTime::max() && now_ < deadline) {
    TimerLane* lane = earliest_lane();
    const SimTime timer_head = lane == nullptr ? SimTime::max() : lane->at(lane->head).time;
    if (std::min(queue_.next_time(), timer_head) > deadline) now_ = deadline;
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
