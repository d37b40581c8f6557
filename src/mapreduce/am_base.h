#pragma once

// Base class for ApplicationMaster drivers, and the one copy of the
// job-attempt core both flavours share: split computation, map
// accounting into the profile, the partition-once shard registry,
// reduce fan-in, successful completion and failure. Concrete AMs: the
// distributed-mode MRAppMaster (per-task containers via the RM's
// scheduler — baseline Hadoop and MRapid D+) and the Uber AM (all
// tasks inside the AM container — baseline Uber and MRapid U+). They
// differ only in how tasks get a place to run; the flavour hooks below
// carry the distributed AM's extra container/heartbeat steps.
//
// Lifetime: every AM lives in a slot of the JobClient's AmSlots map
// (am_slots.h). Callbacks that can outlive the attempt (RM handlers,
// container launches, the umbilical and dispatch events, the pool
// handoff) capture the AM's generation-checked `self()` reference and
// do nothing once it is stale. Task callbacks capture `this` and are
// counted in the TaskOwner the AM shares with its tasks through
// TaskEnv; the slot map frees a released AM only when that count is
// zero (quiescent()). Cancellation is the cooperative `killed` flag in
// that same TaskOwner.

#include <functional>
#include <memory>

#include "cluster/cluster.h"
#include "hdfs/hdfs.h"
#include "mapreduce/am_slots.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/task_runner.h"
#include "yarn/resource_manager.h"

namespace mrapid::mr {

class AmBase {
 public:
  using CompletionCallback = std::function<void(const JobResult&)>;

  AmBase(cluster::Cluster& cluster, hdfs::Hdfs& hdfs, yarn::ResourceManager& rm,
         const MRConfig& config, JobSpec spec, ExecutionMode mode, CompletionCallback on_complete);
  virtual ~AmBase() = default;

  AmBase(const AmBase&) = delete;
  AmBase& operator=(const AmBase&) = delete;

  // The AM container is up and initialised; run the job.
  virtual void start(const yarn::Container& am_container) = 0;

  // Terminate this attempt: sets the kill flag, releases containers,
  // unregisters from the RM. Idempotent.
  void kill();

  // Terminate this attempt *without* unregistering the application:
  // the AM container died and the RM is re-executing the AM, so the
  // app record must survive for the next attempt. Idempotent.
  void abandon();

  bool finished() const { return finished_; }
  bool was_killed() const { return tasks_.killed; }
  // Terminal, and no task callback is still in flight: the slot map
  // may free this attempt.
  bool quiescent() const { return stopped() && tasks_.in_flight == 0; }
  // This attempt's generation-checked reference (set by AmSlots).
  AmRef self() const { return self_; }
  yarn::AppId app_id() const { return app_id_; }
  void set_app_id(yarn::AppId id) { app_id_ = id; }
  void set_submit_time(sim::SimTime t) { profile_.submit_time = t; }

  // Pool-managed AMs belong to a long-lived reserved application; on
  // job completion (or kill) they must stay registered so the slot can
  // be reused, only their queued asks are cancelled.
  void set_managed_by_pool(bool managed) { managed_by_pool_ = managed; }
  bool managed_by_pool() const { return managed_by_pool_; }

  // Live view for the speculative profiler: readable mid-run.
  const JobProfile& live_profile() const { return profile_; }
  int completed_maps() const { return completed_maps_; }
  int total_maps() const { return static_cast<int>(splits_.size()); }
  const JobSpec& spec() const { return spec_; }
  ExecutionMode mode() const { return mode_; }

 protected:
  TaskEnv env() {
    return TaskEnv{sim_, cluster_, hdfs_, config_, &tasks_, app_id_,
                   profile_.submit_time.as_micros()};
  }
  bool stopped() const { return finished_ || tasks_.killed; }

  // The AM container is up: compute the splits and size every per-map
  // and per-partition table, the shard registry included.
  void begin_job(const yarn::Container& am_container);

  // A map's result is final: partition its output once, count it into
  // the profile, and keep it for reducers that start later. Returns
  // the kept copy.
  const MapTaskResult& accept_map(MapTaskResult result);

  // Starts reducer `partition` on `node`, reading every accepted map
  // so far. Attempts > 0 commit under an attempt-suffixed part name.
  void start_reducer(int partition, cluster::NodeId node, int attempt,
                     ReduceRunner::DoneCallback done,
                     ReduceRunner::FetchFailedCallback fetch_failed = {});

  // One reducer finished; the last one completes the job.
  void on_reduce_done(int partition, const TaskProfile& profile, const ReduceOutcome& outcome);

  // Successful end of the job (the reduce fan-in above, or the last
  // map of a map-only job).
  void succeed(std::vector<std::shared_ptr<const void>> reduce_results);

  // A map exhausted its attempt budget: the job fails. Idempotent.
  void fail();

  // ---- flavour hooks (the distributed AM's container/heartbeat steps)
  // The attempt ends early (kill, failure): stop asking for and give
  // back task containers. Runs before the app is unregistered.
  virtual void stop_tasks() {}
  // Last steps before a successful completion is reported.
  virtual void before_success() {}
  // A failed job has been unregistered; runs before the client hears.
  virtual void after_failure() {}

  cluster::Cluster& cluster_;
  hdfs::Hdfs& hdfs_;
  yarn::ResourceManager& rm_;
  sim::Simulation& sim_;
  const MRConfig& config_;
  JobSpec spec_;
  ExecutionMode mode_;
  CompletionCallback on_complete_;
  yarn::AppId app_id_ = yarn::kInvalidApp;
  AmRef self_;
  TaskOwner tasks_;  // kill flag + task callbacks in flight
  bool finished_ = false;
  bool managed_by_pool_ = false;
  JobProfile profile_;
  cluster::NodeId am_node_ = cluster::kInvalidNode;
  std::vector<InputSplit> splits_;
  std::vector<int> attempts_;  // per map task, how many attempts started
  int completed_maps_ = 0;
  // Every accepted map result, kept so reducers that launch late can
  // still fetch every shard.
  std::vector<MapTaskResult> map_results_;
  // Partition-once shard registry shared by all reducer attempts.
  // Declared before the runners that point into it.
  std::unique_ptr<MapOutputRegistry> registry_;
  std::vector<std::unique_ptr<ReduceRunner>> reduce_runners_;  // per partition
  std::vector<ReduceOutcome> reduce_outcomes_;
  int reducers_done_ = 0;

 private:
  friend class AmSlots;  // sets self_
};

}  // namespace mrapid::mr
