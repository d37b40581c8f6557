#include "yarn/scheduling_algorithm.h"

#include <cassert>

#include "sim/simulation.h"
#include "sim/trace.h"
#include "yarn/node_table.h"

namespace mrapid::yarn {

PolicyScheduler::PolicyScheduler(std::unique_ptr<ISchedulingAlgorithm> algorithm,
                                 PolicySchedulerOptions options)
    : algorithm_(std::move(algorithm)), options_(options), wait_estimator_(options_.wait) {
  assert(algorithm_ != nullptr);
}

PolicyScheduler::~PolicyScheduler() = default;

SchedulerContext& PolicyScheduler::context() {
  assert(context_ != nullptr);
  return *context_;
}

sim::SimTime PolicyScheduler::now() const {
  assert(context_ != nullptr);
  return context_->simulation().now();
}

NodeTable& PolicyScheduler::table() {
  NodeTable* t = context().node_table();
  assert(t != nullptr);
  return *t;
}

const std::vector<NodeState*>& PolicyScheduler::schedulable_nodes() {
  return table().schedulable();
}

NodeState* PolicyScheduler::first_fit(Resource need, cluster::NodeId skip) {
  return table().first_fit(need, skip);
}

double PolicyScheduler::resolve_runtime_estimate(const Ask& ask) const {
  if (ask.long_lived) return options_.am_runtime_estimate_s;
  auto it = runtime_hints_.find(ask.app);
  if (it != runtime_hints_.end()) return it->second;
  if (wait_estimator_.services_observed() >= options_.min_service_samples) {
    return wait_estimator_.mean_service_s();
  }
  return options_.default_runtime_estimate_s;
}

void PolicyScheduler::refresh_servers() {
  wait_estimator_.set_servers(table().schedulable_capacity_vcores());
}

void PolicyScheduler::on_container_request(std::vector<Ask> asks) {
  assert(context_ != nullptr);
  const sim::SimTime t = now();
  for (auto& ask : asks) {
    wait_estimator_.observe_arrival(t.as_seconds());
    QueuedAsk entry;
    entry.runtime_estimate_s = resolve_runtime_estimate(ask);
    entry.ask = std::move(ask);
    entry.enqueued = t;
    queue_.push_back(std::move(entry));
    ++counters_.queued;
  }
  algorithm_->schedule(*this, SchedulingEvent{SchedulingEvent::Kind::kAsksAdded,
                                              cluster::kInvalidNode});
}

void PolicyScheduler::on_node_update(cluster::NodeId node) {
  assert(context_ != nullptr);
  refresh_servers();
  algorithm_->schedule(*this, SchedulingEvent{SchedulingEvent::Kind::kNodeUpdated, node});
}

void PolicyScheduler::cancel_asks(AppId app) {
  if (context_ != nullptr) {
    // Reservation-holding policies drop `app`'s reservations first so
    // cancelled asks never pin shadow-schedule slots (the backfill
    // leak the conservation invariant guards against).
    algorithm_->on_cancel(*this, app);
  }
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->ask.app == app) {
      if (context_ != nullptr) {
        MRAPID_TRACE(context_->simulation(), sim::TraceCategory::kContainer, "ask.cancelled",
                     {"ask", static_cast<std::int64_t>(it->ask.id)}, {"app", app});
      }
      ++counters_.cancelled;
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  runtime_hints_.erase(app);
}

void PolicyScheduler::on_container_finished(const Container& container) {
  for (auto it = running_.begin(); it != running_.end(); ++it) {
    if (it->id == container.id) {
      wait_estimator_.observe_service((now() - it->started).as_seconds());
      running_.erase(it);
      return;
    }
  }
}

void PolicyScheduler::set_app_runtime_hint(AppId app, double seconds) {
  if (seconds > 0.0) runtime_hints_[app] = seconds;
}

void PolicyScheduler::allocate(std::size_t index, NodeState& node, bool backfilled) {
  assert(index < queue_.size());
  QueuedAsk entry = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  table().charge(node, entry.ask.capability);
  Allocation allocation;
  allocation.ask = entry.ask.id;
  allocation.container =
      Container{context().next_container_id(), entry.ask.app, node.id, entry.ask.capability};
  allocation.locality = judge_locality(entry.ask, node.id);
  wait_estimator_.observe_wait((now() - entry.enqueued).as_seconds());
  running_.push_back(RunningContainer{allocation.container.id, entry.ask.app, node.id,
                                      entry.ask.capability, now(), entry.runtime_estimate_s});
  ++counters_.delivered;
  if (backfilled) ++counters_.backfilled;
  // Last: delivery may re-enter on_container_finished (an allocation
  // racing a finished app is released synchronously).
  context().deliver_allocation(allocation);
}

}  // namespace mrapid::yarn
