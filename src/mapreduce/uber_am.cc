#include "mapreduce/uber_am.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/log.h"
#include "mapreduce/split.h"
#include "sim/trace.h"

namespace mrapid::mr {

int UberAppMaster::wave_width() const {
  if (!spec_.uber.parallel) return 1;
  const int cores = cluster_.node(am_node_).spec().cores;
  return std::max(1, cores * spec_.uber.maps_per_core);
}

void UberAppMaster::start(const yarn::Container& am_container) {
  assert(spec_.num_reducers >= 0);
  profile_.am_ready_time = sim_.now();
  am_node_ = am_container.node;
  profile_.containers_per_node = {{am_node_, 1}};

  splits_ = compute_splits(hdfs_, spec_.input_paths);
  profile_.maps.resize(splits_.size());
  attempts_.assign(splits_.size(), 0);
  for (const auto& split : splits_) profile_.total_input += split.length;
  registry_ = std::make_unique<MapOutputRegistry>(spec_, static_cast<int>(splits_.size()),
                                                  config_.shuffle_stats);

  if (splits_.empty()) {
    start_reduces();
    return;
  }
  profile_.first_map_start = sim_.now();
  pump_maps();
}

void UberAppMaster::pump_maps() {
  if (finished_ || *killed_ || dispatching_) return;
  if (running_maps_ >= wave_width() || next_split_ >= splits_.size()) return;
  dispatching_ = true;
  // Per-task setup is serialized on the AM's dispatch path even for
  // parallel (U+) execution: one task enters the pool every
  // task_dispatch_overhead.
  sim_.schedule_after(spec_.uber.task_dispatch_overhead, [this] { dispatch_next(); },
                      "uber:dispatch");
}

MapTaskOptions UberAppMaster::make_map_options() {
  MapTaskOptions options;
  if (spec_.uber.cache_in_memory) {
    // Cache intermediate data in RAM while the budget holds; once it
    // is exhausted this degrades to the original Uber behaviour.
    options.spill_decider = [this](Bytes out) {
      if (cache_used_ + out <= spec_.uber.memory_cache_budget) {
        cache_used_ += out;
        return false;
      }
      ++spilled_maps_;
      return true;
    };
  } else {
    options.spill_decider = [this](Bytes) {
      ++spilled_maps_;
      return true;
    };
  }
  return options;
}

void UberAppMaster::launch_map(std::size_t split_index) {
  ++running_maps_;
  const int attempt = attempts_[split_index]++;
  MRAPID_TRACE(sim_, sim::TraceCategory::kTask, "map.scheduled", {"app", app_id_},
               {"job", profile_.submit_time.as_micros()},
               {"task", static_cast<std::int64_t>(split_index)}, {"attempt", attempt},
               {"node", am_node_});
  run_map_task(env(), spec_, splits_[split_index], am_node_, make_map_options(),
               [this](MapTaskResult result) { on_map_done(std::move(result)); }, attempt);
}

void UberAppMaster::dispatch_next() {
  dispatching_ = false;
  if (finished_ || *killed_) return;
  launch_map(next_split_++);
  pump_maps();  // chain the next dispatch if width allows
}

void UberAppMaster::fail_job() {
  if (finished_ || *killed_) return;
  finished_ = true;
  profile_.finish_time = sim_.now();
  if (app_id_ != yarn::kInvalidApp && !managed_by_pool_) rm_.finish_application(app_id_);
  LOG_WARN("am", "uber job %s failed: map exceeded %d attempts", spec_.name.c_str(),
           config_.faults.max_attempts);
  if (on_complete_) {
    JobResult result;
    result.succeeded = false;
    result.profile = profile_;
    on_complete_(result);
  }
}

void UberAppMaster::on_map_done(MapTaskResult result) {
  if (finished_ || *killed_) return;
  --running_maps_;
  if (result.failed) {
    ++profile_.failed_attempts;
    const auto task = static_cast<std::size_t>(result.profile.index);
    if (attempts_[task] >= config_.faults.max_attempts) {
      fail_job();
      return;
    }
    launch_map(task);  // retry in place, same JVM
    return;
  }
  ++completed_maps_;
  profile_.maps[static_cast<std::size_t>(result.profile.index)] = result.profile;
  profile_.total_map_output += result.outcome.output_bytes;
  switch (result.profile.locality) {
    case cluster::Locality::kNodeLocal: ++profile_.node_local_maps; break;
    case cluster::Locality::kRackLocal: ++profile_.rack_local_maps; break;
    case cluster::Locality::kAny: ++profile_.off_rack_maps; break;
  }
  // Partition once, before the reducers replay the result list.
  registry_->announce(result.profile.index, result.outcome);
  map_results_.push_back(std::move(result));

  if (completed_maps_ == total_maps()) {
    profile_.maps_done = sim_.now();
    start_reduces();
    return;
  }
  pump_maps();
}

void UberAppMaster::start_reduces() {
  if (finished_ || *killed_) return;
  if (spec_.num_reducers == 0) {
    complete(true, {});
    return;
  }
  // All reduce partitions run inside the AM container; with several
  // partitions they contend for the node's cores via the fluid CPU.
  reduce_runners_.resize(static_cast<std::size_t>(spec_.num_reducers));
  reduce_outcomes_.resize(static_cast<std::size_t>(spec_.num_reducers));
  profile_.reduces.resize(static_cast<std::size_t>(spec_.num_reducers));
  for (int partition = 0; partition < spec_.num_reducers; ++partition) {
    char part_name[32];
    std::snprintf(part_name, sizeof(part_name), "/part-r-%05d", partition);
    MRAPID_TRACE(sim_, sim::TraceCategory::kTask, "reduce.scheduled", {"app", app_id_},
                 {"job", profile_.submit_time.as_micros()}, {"partition", partition},
                 {"node", am_node_});
    auto& runner = reduce_runners_[static_cast<std::size_t>(partition)];
    runner = std::make_unique<ReduceRunner>(
        env(), spec_, partition, spec_.output_path + part_name, am_node_, total_maps(),
        [this, partition](TaskProfile profile, ReduceOutcome outcome) {
          on_reduce_done(partition, profile, outcome);
        });
    runner->set_registry(registry_.get());
    runner->start();
    runner->on_map_outputs(map_results_);
  }
}

void UberAppMaster::on_reduce_done(int partition, const TaskProfile& profile,
                                   const ReduceOutcome& outcome) {
  if (finished_ || *killed_) return;
  profile_.reduces[static_cast<std::size_t>(partition)] = profile;
  reduce_outcomes_[static_cast<std::size_t>(partition)] = outcome;
  ++reducers_done_;
  if (reducers_done_ < spec_.num_reducers) return;

  profile_.reduce = profile_.reduces.back();
  profile_.shuffle_done = sim::SimTime::zero();
  profile_.shuffled_bytes = 0;
  for (const auto& task : profile_.reduces) {
    profile_.shuffle_done = std::max(profile_.shuffle_done, task.read_done);
  }
  for (const auto& runner : reduce_runners_) {
    if (runner) profile_.shuffled_bytes += runner->shuffled_bytes();
  }
  std::vector<std::shared_ptr<const void>> results;
  for (auto& collected : reduce_outcomes_) {
    profile_.output_bytes += collected.output_bytes;
    results.push_back(collected.result);
  }
  complete(true, std::move(results));
}

}  // namespace mrapid::mr
