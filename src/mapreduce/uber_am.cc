#include "mapreduce/uber_am.h"

#include <algorithm>

#include "sim/trace.h"

namespace mrapid::mr {

int UberAppMaster::wave_width() const {
  if (!spec_.uber.parallel) return 1;
  const int cores = cluster_.node(am_node_).spec().cores;
  return std::max(1, cores * spec_.uber.maps_per_core);
}

void UberAppMaster::start(const yarn::Container& am_container) {
  begin_job(am_container);
  profile_.containers_per_node = {{am_node_, 1}};
  if (splits_.empty()) {
    start_reduces();
    return;
  }
  profile_.first_map_start = sim_.now();
  pump_maps();
}

void UberAppMaster::pump_maps() {
  if (stopped() || dispatching_) return;
  if (running_maps_ >= wave_width() || next_split_ >= splits_.size()) return;
  dispatching_ = true;
  // Per-task setup is serialized on the AM's dispatch path even for
  // parallel (U+) execution: one task enters the pool every
  // task_dispatch_overhead.
  sim_.schedule_after(spec_.uber.task_dispatch_overhead, [self = self()] {
    if (auto* am = self.as<UberAppMaster>()) am->dispatch_next();
  }, "uber:dispatch");
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
  if (stopped()) return;
  launch_map(next_split_++);
  pump_maps();  // chain the next dispatch if width allows
}

void UberAppMaster::on_map_done(MapTaskResult result) {
  if (stopped()) return;
  --running_maps_;
  if (result.failed) {
    ++profile_.failed_attempts;
    const auto task = static_cast<std::size_t>(result.profile.index);
    if (attempts_[task] >= config_.faults.max_attempts) {
      fail();
      return;
    }
    launch_map(task);  // retry in place, same JVM
    return;
  }
  accept_map(std::move(result));
  if (completed_maps_ == total_maps()) {
    start_reduces();
    return;
  }
  pump_maps();
}

void UberAppMaster::start_reduces() {
  if (stopped()) return;
  if (spec_.num_reducers == 0) {
    succeed({});
    return;
  }
  // All reduce partitions run inside the AM container; with several
  // partitions they contend for the node's cores via the fluid CPU.
  for (int partition = 0; partition < spec_.num_reducers; ++partition) {
    MRAPID_TRACE(sim_, sim::TraceCategory::kTask, "reduce.scheduled", {"app", app_id_},
                 {"job", profile_.submit_time.as_micros()}, {"partition", partition},
                 {"node", am_node_});
    start_reducer(partition, am_node_, /*attempt=*/0,
                  [this, partition](TaskProfile profile, ReduceOutcome outcome) {
                    on_reduce_done(partition, profile, outcome);
                  });
  }
}

}  // namespace mrapid::mr
