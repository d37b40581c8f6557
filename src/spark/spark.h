#pragma once

// SparkLite: a minimal Spark-on-YARN-style engine used as a
// comparison baseline. The paper's related-work section claims that
// "the performance of Spark on Yarn is still slow for short jobs
// because of the high overhead to launch containers for AMs and
// executors" — this engine reproduces that cost structure:
//
//   * the driver runs as a YARN AM (allocation + JVM launch + a
//     SparkContext initialisation that is *heavier* than an MR AM);
//   * N executor containers are requested through the scheduler and
//     each pays a JVM launch + registration;
//   * once executors are up, tasks dispatch in milliseconds (no
//     per-task JVM), intermediate data stays in executor memory, and
//     the shuffle is memory-to-memory over the network.
//
// It executes the same JobLogic as the MapReduce runtime, so results
// are bit-identical and directly comparable, and it shards map output
// the same way: each finished map is announced once into a
// mr::MapOutputRegistry, and every reduce task reads its shards from
// there. SparkLite jobs are never killed mid-run (no speculative race
// drives them), so their tasks run with no kill flag.
//
// Lifetime: the caller owns the app through a shared_ptr and may drop
// it once finished() is true. Only two kinds of callback can still
// fire after that — an executor container that comes up late and the
// registration timeout — and both hold a weak_ptr, so they do nothing
// once the app is gone. Every other callback completes before finish().

#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "hdfs/hdfs.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/task_runner.h"
#include "yarn/resource_manager.h"

namespace mrapid::spark {

struct SparkConfig {
  int executors = 4;
  yarn::Resource executor_container{1, 2048};
  int cores_per_executor = 1;  // concurrent tasks per executor
  // SparkContext + DAGScheduler init on top of the driver JVM launch.
  sim::SimDuration driver_init = sim::SimDuration::seconds(2.5);
  // Executor registration RPC after its JVM is up.
  sim::SimDuration executor_register = sim::SimDuration::millis(400);
  // Per-task dispatch cost (closure serialisation + RPC) — milliseconds,
  // the whole point of long-lived executors.
  sim::SimDuration task_dispatch = sim::SimDuration::millis(30);
  // Fraction of executors that must register before stage 1 starts
  // (spark.scheduler.minRegisteredResourcesRatio)...
  double min_registered_fraction = 1.0;
  // ...but like the real scheduler, don't wait forever: after this
  // timeout the stage starts with whatever registered (the cluster may
  // simply not fit the requested executor count).
  sim::SimDuration max_registered_wait = sim::SimDuration::seconds(30);
};

class SparkApp : public std::enable_shared_from_this<SparkApp> {
 public:
  using CompletionCallback = std::function<void(const mr::JobResult&)>;

  SparkApp(cluster::Cluster& cluster, hdfs::Hdfs& hdfs, yarn::ResourceManager& rm,
           const mr::MRConfig& mr_config, SparkConfig config, mr::JobSpec spec,
           CompletionCallback on_complete);

  // Full client path: upload files, submit the driver AM, acquire
  // executors, run the two-stage DAG.
  void submit();

  const mr::JobProfile& live_profile() const { return profile_; }
  bool finished() const { return finished_; }
  int registered_executors() const { return static_cast<int>(executors_.size()); }

 private:
  struct Executor {
    yarn::Container container;
    int free_slots = 0;
  };

  void on_driver_ready(const yarn::Container& container);
  void driver_heartbeat();
  void on_executor_up(const yarn::Container& container);
  void maybe_start_map_stage();
  void on_registration_timeout();
  void pump_map_tasks();
  void run_map_task_on(Executor& executor, std::size_t split_index);
  void on_map_task_done(Executor& executor, mr::MapTaskResult result);
  void start_reduce_stage();
  void run_reduce_task(Executor& executor, int partition);
  void finish();

  cluster::Cluster& cluster_;
  hdfs::Hdfs& hdfs_;
  yarn::ResourceManager& rm_;
  sim::Simulation& sim_;
  const mr::MRConfig& mr_config_;
  SparkConfig config_;
  mr::JobSpec spec_;
  CompletionCallback on_complete_;

  yarn::AppId app_id_ = yarn::kInvalidApp;
  yarn::Container driver_container_;
  std::vector<yarn::Ask> asks_to_send_;
  std::vector<Executor> executors_;
  sim::EventId heartbeat_event_{};

  std::vector<mr::InputSplit> splits_;
  std::size_t next_split_ = 0;
  int completed_maps_ = 0;
  bool map_stage_started_ = false;
  bool registration_deadline_armed_ = false;
  std::vector<mr::MapTaskResult> map_results_;  // in completion order
  std::unique_ptr<mr::MapOutputRegistry> registry_;
  int reducers_done_ = 0;
  bool finished_ = false;
  std::vector<mr::ReduceOutcome> reduce_outcomes_;
  std::vector<Bytes> shuffled_per_partition_;
  mr::JobProfile profile_;
};

}  // namespace mrapid::spark
