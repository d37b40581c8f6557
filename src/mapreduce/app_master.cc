#include "mapreduce/app_master.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/log.h"
#include "sim/trace.h"

namespace mrapid::mr {

void MRAppMaster::start(const yarn::Container& am_container) {
  begin_job(am_container);
  min_valid_attempt_.assign(splits_.size(), 0);
  map_done_.assign(splits_.size(), 0);
  reduce_attempt_.assign(static_cast<std::size_t>(spec_.num_reducers), 0);

  rm_.set_container_lost_handler(app_id_, [self = self()](const yarn::Container& container) {
    if (auto* am = self.as<MRAppMaster>()) am->on_container_lost(container);
  });

  // One ask per map task, carrying the replica hosts so a
  // locality-aware scheduler can honour them.
  for (std::size_t i = 0; i < splits_.size(); ++i) ask_for_map(i);
  if (splits_.empty()) maybe_request_reducers();
  heartbeat();
}

void MRAppMaster::ask_for_map(std::size_t task) {
  yarn::Ask ask;
  ask.id = rm_.new_ask_id();
  ask.app = app_id_;
  ask.capability = rm_.config().task_container;
  ask.preferred_nodes = splits_[task].hosts;
  ask_to_task_.emplace(ask.id, task);
  MRAPID_TRACE(sim_, sim::TraceCategory::kTask, "map.scheduled", {"app", app_id_},
               {"job", profile_.submit_time.as_micros()},
               {"task", static_cast<std::int64_t>(task)}, {"attempt", attempts_[task]},
               {"ask", ask.id});
  asks_to_send_.push_back(std::move(ask));
}

void MRAppMaster::ask_for_reduce(int partition, int attempt) {
  yarn::Ask ask;
  ask.id = rm_.new_ask_id();
  ask.app = app_id_;
  ask.capability = rm_.config().task_container;
  reducer_asks_.emplace(ask.id, partition);
  MRAPID_TRACE_ATTEMPT(sim_, sim::TraceCategory::kTask, "reduce.scheduled", attempt,
                       {"app", app_id_}, {"job", profile_.submit_time.as_micros()},
                       {"partition", partition}, {"ask", ask.id});
  asks_to_send_.push_back(std::move(ask));
}

void MRAppMaster::heartbeat() {
  if (stopped()) return;
  std::vector<yarn::Ask> asks;
  asks.swap(asks_to_send_);
  const auto allocations = rm_.am_allocate(app_id_, std::move(asks));
  for (const auto& allocation : allocations) on_allocation(allocation);
  heartbeat_event_ = sim_.schedule_after(rm_.config().am_heartbeat, [self = self()] {
    if (auto* am = self.as<MRAppMaster>()) am->heartbeat();
  }, "mram:heartbeat");
}

void MRAppMaster::on_allocation(const yarn::Allocation& allocation) {
  if (stopped()) {
    rm_.release_container(allocation.container);
    return;
  }
  live_containers_.emplace(allocation.container.id, allocation.container);
  ++containers_per_node_[allocation.container.node];

  if (auto reducer = reducer_asks_.find(allocation.ask); reducer != reducer_asks_.end()) {
    const int partition = reducer->second;
    container_to_reduce_.emplace(allocation.container.id, partition);
    rm_.node_manager(allocation.container.node)
        .launch_container(allocation.container,
                          [self = self(), container = allocation.container, partition] {
                            if (auto* am = self.as<MRAppMaster>()) {
                              am->run_reduce(container, partition);
                            }
                          });
    return;
  }
  auto it = ask_to_task_.find(allocation.ask);
  assert(it != ask_to_task_.end() && "allocation for unknown ask");
  const std::size_t task = it->second;
  container_to_map_.emplace(allocation.container.id, task);
  rm_.node_manager(allocation.container.node)
      .launch_container(allocation.container,
                        [self = self(), container = allocation.container, task] {
                          if (auto* am = self.as<MRAppMaster>()) am->run_map(container, task);
                        });
}

void MRAppMaster::run_map(const yarn::Container& container, std::size_t task_index) {
  if (stopped()) return;
  // The container was written off (node lost) while its JVM came up.
  if (live_containers_.find(container.id) == live_containers_.end()) return;
  if (!first_map_seen_) {
    first_map_seen_ = true;
    profile_.first_map_start = sim_.now();
  }
  MapTaskOptions options;  // distributed maps always spill
  const int attempt = attempts_[task_index]++;
  run_map_task(env(), spec_, splits_[task_index], container.node, options,
               [this, container](MapTaskResult result) { on_map_done(container, result); },
               attempt);
}

void MRAppMaster::on_map_failed(const yarn::Container& container, const MapTaskResult& result) {
  const auto task = static_cast<std::size_t>(result.profile.index);
  ++profile_.failed_attempts;
  container_to_map_.erase(container.id);
  if (live_containers_.erase(container.id) > 0) rm_.release_container(container);
  if (result.profile.attempt < min_valid_attempt_[task]) return;  // stale attempt
  LOG_INFO("am", "map %d attempt %d failed on node %d", result.profile.index,
           result.profile.attempt, result.profile.node);
  if (attempts_[task] >= config_.faults.max_attempts) {
    fail();
    return;
  }
  // Retry through the scheduler: a fresh ask, possibly a fresh node.
  ask_for_map(task);
}

void MRAppMaster::on_map_done(const yarn::Container& container, MapTaskResult result) {
  if (stopped()) return;
  if (result.failed) {
    on_map_failed(container, result);
    return;
  }
  // Task umbilical: status reaches the AM after a small RPC delay.
  sim_.schedule_after(config_.umbilical_latency,
                      [self = self(), container, result = std::move(result)]() mutable {
    if (auto* am = self.as<MRAppMaster>()) am->on_map_reported(container, std::move(result));
  }, "mram:map-done");
}

void MRAppMaster::on_map_reported(const yarn::Container& container, MapTaskResult result) {
  if (stopped()) return;
  container_to_map_.erase(container.id);
  // A lost container was already written off — never release those.
  if (live_containers_.erase(container.id) > 0) rm_.release_container(container);
  const auto task = static_cast<std::size_t>(result.profile.index);
  // Stale completions: the attempt was invalidated (node expired or
  // its output written off), or a duplicate attempt already counted.
  if (result.profile.attempt < min_valid_attempt_[task] || map_done_[task]) return;
  map_done_[task] = 1;
  const MapTaskResult& accepted = accept_map(std::move(result));
  for (auto& runner : reduce_runners_) {
    if (runner) runner->on_map_output(accepted);
  }
  maybe_request_reducers();
}

void MRAppMaster::maybe_request_reducers() {
  if (reducers_requested_) return;
  if (spec_.num_reducers == 0) {
    // Map-only job: done when the maps are.
    if (completed_maps_ == total_maps()) succeed({});
    return;
  }
  // Reduce slow-start: request the reducers once the configured
  // fraction of maps has completed (Hadoop default 5% — i.e. after
  // the first map of a short job).
  const int threshold = std::max(
      1, static_cast<int>(std::ceil(config_.reduce_slowstart * total_maps())));
  if (total_maps() > 0 && completed_maps_ < threshold) return;
  reducers_requested_ = true;
  for (int partition = 0; partition < spec_.num_reducers; ++partition) {
    ask_for_reduce(partition, 0);
  }
}

void MRAppMaster::run_reduce(const yarn::Container& container, int partition) {
  if (stopped()) return;
  // The container was written off (node lost) while its JVM came up.
  if (live_containers_.find(container.id) == live_containers_.end()) return;
  const int attempt = reduce_attempt_[static_cast<std::size_t>(partition)];
  start_reducer(
      partition, container.node, attempt,
      [this, container, partition, attempt](TaskProfile profile, ReduceOutcome outcome) {
        if (reduce_attempt_[static_cast<std::size_t>(partition)] != attempt) return;
        container_to_reduce_.erase(container.id);
        if (live_containers_.erase(container.id) > 0) rm_.release_container(container);
        on_reduce_done(partition, profile, outcome);
      },
      [this](int map_index) { on_fetch_failed(map_index); });
}

void MRAppMaster::on_container_lost(const yarn::Container& container) {
  if (stopped()) return;
  ++profile_.lost_containers;
  // Never released back: the RM wrote the container off with the node.
  live_containers_.erase(container.id);
  if (auto reducer = container_to_reduce_.find(container.id);
      reducer != container_to_reduce_.end()) {
    const int partition = reducer->second;
    container_to_reduce_.erase(reducer);
    requeue_reduce(partition);
    return;
  }
  if (auto it = container_to_map_.find(container.id); it != container_to_map_.end()) {
    const std::size_t task = it->second;
    container_to_map_.erase(it);
    if (map_done_[task]) return;  // result already safe in the AM
    requeue_map(task);
  }
}

void MRAppMaster::on_fetch_failed(int map_index) {
  if (stopped()) return;
  const auto task = static_cast<std::size_t>(map_index);
  if (!map_done_[task]) return;  // a re-run is already on its way
  // Invalidate the counted result: its output died with the node.
  map_done_[task] = 0;
  --completed_maps_;
  for (auto it = map_results_.begin(); it != map_results_.end(); ++it) {
    if (it->profile.index != map_index) continue;
    profile_.total_map_output -= it->outcome.output_bytes;
    profile_.count_map_locality(it->profile.locality, -1);
    map_results_.erase(it);
    break;
  }
  registry_->invalidate(map_index);
  requeue_map(task);
}

void MRAppMaster::requeue_map(std::size_t task) {
  // Results of every attempt started so far are void.
  min_valid_attempt_[task] = attempts_[task];
  MRAPID_TRACE(sim_, sim::TraceCategory::kTask, "map.lost", {"app", app_id_},
               {"job", profile_.submit_time.as_micros()},
               {"task", static_cast<std::int64_t>(task)}, {"attempt", attempts_[task]});
  if (attempts_[task] >= config_.faults.max_attempts) {
    fail();
    return;
  }
  ask_for_map(task);
}

void MRAppMaster::requeue_reduce(int partition) {
  auto& slot = reduce_runners_[static_cast<std::size_t>(partition)];
  if (slot) {
    slot->cancel();
    retired_runners_.push_back(std::move(slot));
  }
  ask_for_reduce(partition, ++reduce_attempt_[static_cast<std::size_t>(partition)]);
}

void MRAppMaster::stop_tasks() {
  if (heartbeat_event_.valid()) sim_.cancel(heartbeat_event_);
  for (const auto& [id, container] : live_containers_) rm_.release_container(container);
  live_containers_.clear();
}

void MRAppMaster::before_success() {
  profile_.containers_per_node.assign(containers_per_node_.begin(), containers_per_node_.end());
  if (heartbeat_event_.valid()) sim_.cancel(heartbeat_event_);
}

void MRAppMaster::after_failure() {
  if (app_id_ != yarn::kInvalidApp && managed_by_pool_) rm_.scheduler().cancel_asks(app_id_);
  MRAPID_TRACE(sim_, sim::TraceCategory::kApp, "job.failed", {"app", app_id_},
               {"job", profile_.submit_time.as_micros()});
}

}  // namespace mrapid::mr
