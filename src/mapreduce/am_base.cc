#include "mapreduce/am_base.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/log.h"
#include "mapreduce/split.h"
#include "sim/trace.h"

namespace mrapid::mr {

AmBase::AmBase(cluster::Cluster& cluster, hdfs::Hdfs& hdfs, yarn::ResourceManager& rm,
               const MRConfig& config, JobSpec spec, ExecutionMode mode,
               CompletionCallback on_complete)
    : cluster_(cluster),
      hdfs_(hdfs),
      rm_(rm),
      sim_(cluster.simulation()),
      config_(config),
      spec_(std::move(spec)),
      mode_(mode),
      on_complete_(std::move(on_complete)) {
  profile_.job_name = spec_.name;
  profile_.mode = mode;
}

void AmBase::kill() {
  if (stopped()) return;
  stop_tasks();
  tasks_.killed = true;
  LOG_INFO("am", "job %s (%s) killed", spec_.name.c_str(), mode_name(mode_));
  if (app_id_ == yarn::kInvalidApp) return;
  if (managed_by_pool_) {
    rm_.scheduler().cancel_asks(app_id_);  // the reserved app lives on
  } else {
    rm_.finish_application(app_id_);
  }
}

void AmBase::abandon() {
  if (stopped()) return;
  MRAPID_TRACE(sim_, sim::TraceCategory::kApp, "job.abandoned", {"app", app_id_});
  // Route through kill() for the container/ask cleanup, but suppress
  // finish_application: the app record survives for AM re-execution.
  const bool was_pool = managed_by_pool_;
  managed_by_pool_ = true;
  kill();
  managed_by_pool_ = was_pool;
}

void AmBase::begin_job(const yarn::Container& am_container) {
  assert(spec_.num_reducers >= 0);
  profile_.am_ready_time = sim_.now();
  am_node_ = am_container.node;
  splits_ = compute_splits(hdfs_, spec_.input_paths);
  profile_.maps.resize(splits_.size());
  attempts_.assign(splits_.size(), 0);
  for (const auto& split : splits_) profile_.total_input += split.length;
  registry_ = std::make_unique<MapOutputRegistry>(spec_, total_maps(), config_.shuffle_stats);
  const auto reducers = static_cast<std::size_t>(spec_.num_reducers);
  reduce_runners_.resize(reducers);
  reduce_outcomes_.resize(reducers);
  profile_.reduces.resize(reducers);
}

const MapTaskResult& AmBase::accept_map(MapTaskResult result) {
  // Partition once, before any reducer sees the result.
  registry_->announce(result.profile.index, result.outcome);
  ++completed_maps_;
  profile_.maps[static_cast<std::size_t>(result.profile.index)] = result.profile;
  profile_.total_map_output += result.outcome.output_bytes;
  profile_.count_map_locality(result.profile.locality, +1);
  if (completed_maps_ == total_maps()) profile_.maps_done = sim_.now();
  map_results_.push_back(std::move(result));
  return map_results_.back();
}

void AmBase::start_reducer(int partition, cluster::NodeId node, int attempt,
                           ReduceRunner::DoneCallback done,
                           ReduceRunner::FetchFailedCallback fetch_failed) {
  char part_name[48];
  if (attempt > 0) {
    // Re-executed reducers commit under an attempt-suffixed name so a
    // straggling earlier attempt can never collide in HDFS.
    std::snprintf(part_name, sizeof(part_name), "/part-r-%05d-%d", partition, attempt);
  } else {
    std::snprintf(part_name, sizeof(part_name), "/part-r-%05d", partition);
  }
  auto& runner = reduce_runners_[static_cast<std::size_t>(partition)];
  runner = std::make_unique<ReduceRunner>(env(), spec_, *registry_, partition,
                                          spec_.output_path + part_name, node, std::move(done),
                                          attempt);
  runner->set_fetch_failed(std::move(fetch_failed));
  runner->start();
  runner->on_map_outputs(map_results_);
}

void AmBase::on_reduce_done(int partition, const TaskProfile& profile,
                            const ReduceOutcome& outcome) {
  if (stopped()) return;
  profile_.reduces[static_cast<std::size_t>(partition)] = profile;
  reduce_outcomes_[static_cast<std::size_t>(partition)] = outcome;
  if (++reducers_done_ < spec_.num_reducers) return;

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
  for (const auto& collected : reduce_outcomes_) {
    profile_.output_bytes += collected.output_bytes;
    results.push_back(collected.result);
  }
  succeed(std::move(results));
}

void AmBase::succeed(std::vector<std::shared_ptr<const void>> reduce_results) {
  if (stopped()) return;
  before_success();
  finished_ = true;
  profile_.finish_time = sim_.now();
  if (app_id_ != yarn::kInvalidApp && !managed_by_pool_) rm_.finish_application(app_id_);
  LOG_INFO("am", "job %s (%s) finished in %.2fs", spec_.name.c_str(), mode_name(mode_),
           profile_.elapsed_seconds());
  if (on_complete_) {
    JobResult result;
    result.succeeded = true;
    result.profile = profile_;
    result.reduce_results = std::move(reduce_results);
    if (!result.reduce_results.empty()) result.reduce_result = result.reduce_results.front();
    on_complete_(result);
  }
}

void AmBase::fail() {
  if (stopped()) return;
  finished_ = true;
  profile_.finish_time = sim_.now();
  stop_tasks();
  if (app_id_ != yarn::kInvalidApp && !managed_by_pool_) rm_.finish_application(app_id_);
  after_failure();
  LOG_WARN("am", "job %s (%s) failed: map exceeded %d attempts", spec_.name.c_str(),
           mode_name(mode_), config_.faults.max_attempts);
  if (on_complete_) {
    JobResult result;
    result.succeeded = false;
    result.profile = profile_;
    on_complete_(result);
  }
}

}  // namespace mrapid::mr
