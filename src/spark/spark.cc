#include "spark/spark.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/log.h"
#include "mapreduce/split.h"

namespace mrapid::spark {

using cluster::NodeId;

SparkApp::SparkApp(cluster::Cluster& cluster, hdfs::Hdfs& hdfs, yarn::ResourceManager& rm,
                   const mr::MRConfig& mr_config, SparkConfig config, mr::JobSpec spec,
                   CompletionCallback on_complete)
    : cluster_(cluster),
      hdfs_(hdfs),
      rm_(rm),
      sim_(cluster.simulation()),
      mr_config_(mr_config),
      config_(config),
      spec_(std::move(spec)),
      on_complete_(std::move(on_complete)) {
  profile_.job_name = spec_.name;
  profile_.mode = mr::ExecutionMode::kSparkLite;
}

void SparkApp::submit() {
  profile_.submit_time = sim_.now();
  // Executor callbacks hold references into this vector; never let it
  // reallocate once registrations start.
  executors_.reserve(static_cast<std::size_t>(config_.executors));
  const NodeId client_node = cluster_.master();
  const std::string staging = "/tmp/spark-staging/" + spec_.name + "." +
                              std::to_string(sim_.now().as_micros());
  // Spark ships the assembly jar — much fatter than an MR job jar.
  sim_.schedule_after(rm_.config().rpc_latency, [this, staging, client_node] {
    hdfs_.write_file(staging + "/spark-assembly.jar", 4_MB, client_node, [this] {
      app_id_ = rm_.submit_application(
          spec_.name + "@spark",
          [this](const yarn::Container& container) { on_driver_ready(container); });
    });
  }, "spark:submit");
}

void SparkApp::on_driver_ready(const yarn::Container& container) {
  driver_container_ = container;
  // SparkContext + DAGScheduler initialisation on top of the JVM.
  sim_.schedule_after(config_.driver_init, [this] {
    profile_.am_ready_time = sim_.now();
    splits_ = mr::compute_splits(hdfs_, spec_.input_paths);
    profile_.maps.resize(splits_.size());
    for (const auto& split : splits_) profile_.total_input += split.length;
    registry_ = std::make_unique<mr::MapOutputRegistry>(
        spec_, static_cast<int>(splits_.size()), mr_config_.shuffle_stats);

    // Request every executor container up front.
    for (int i = 0; i < config_.executors; ++i) {
      yarn::Ask ask;
      ask.id = rm_.new_ask_id();
      ask.app = app_id_;
      ask.capability = config_.executor_container;
      asks_to_send_.push_back(std::move(ask));
    }
    driver_heartbeat();
  }, "spark:context-init");
}

void SparkApp::driver_heartbeat() {
  std::vector<yarn::Ask> asks;
  asks.swap(asks_to_send_);
  for (const auto& allocation : rm_.am_allocate(app_id_, std::move(asks))) {
    rm_.node_manager(allocation.container.node)
        .launch_container(allocation.container,
                          [app = weak_from_this(), sim = &sim_,
                           delay = config_.executor_register, container = allocation.container] {
                            sim->schedule_after(delay, [app, container] {
                              if (auto live = app.lock()) live->on_executor_up(container);
                            }, "spark:register");
                          });
  }
  heartbeat_event_ = sim_.schedule_after(rm_.config().am_heartbeat,
                                         [this] { driver_heartbeat(); }, "spark:heartbeat");
}

void SparkApp::on_executor_up(const yarn::Container& container) {
  Executor executor;
  executor.container = container;
  executor.free_slots = config_.cores_per_executor;
  executors_.push_back(executor);
  LOG_DEBUG("spark", "executor %d up on node %d (%d/%d)",
            static_cast<int>(executors_.size()), container.node,
            static_cast<int>(executors_.size()), config_.executors);
  maybe_start_map_stage();
}

void SparkApp::maybe_start_map_stage() {
  if (map_stage_started_) {
    pump_map_tasks();
    return;
  }
  const double fraction =
      static_cast<double>(executors_.size()) / std::max(1, config_.executors);
  if (fraction + 1e-9 < config_.min_registered_fraction) {
    // Arm the registration timeout once: if the cluster cannot fit the
    // requested executor count, start anyway with what we have.
    if (!registration_deadline_armed_) {
      registration_deadline_armed_ = true;
      sim_.schedule_after(config_.max_registered_wait, [app = weak_from_this()] {
        if (auto live = app.lock()) live->on_registration_timeout();
      }, "spark:registration-timeout");
    }
    return;
  }
  map_stage_started_ = true;
  profile_.first_map_start = sim_.now();
  pump_map_tasks();
}

void SparkApp::on_registration_timeout() {
  if (map_stage_started_ || executors_.empty()) return;
  LOG_WARN("spark", "starting with %zu/%d executors after registration timeout",
           executors_.size(), config_.executors);
  map_stage_started_ = true;
  profile_.first_map_start = sim_.now();
  pump_map_tasks();
}

void SparkApp::pump_map_tasks() {
  if (!map_stage_started_) return;
  while (next_split_ < splits_.size()) {
    // Prefer an executor co-located with a replica of the next split;
    // otherwise any free slot (Spark's locality wait is milliseconds
    // at this scale, so we skip modelling the wait).
    const mr::InputSplit& split = splits_[next_split_];
    Executor* chosen = nullptr;
    for (auto& executor : executors_) {
      if (executor.free_slots <= 0) continue;
      const bool local = std::find(split.hosts.begin(), split.hosts.end(),
                                   executor.container.node) != split.hosts.end();
      if (local) {
        chosen = &executor;
        break;
      }
      if (chosen == nullptr) chosen = &executor;
    }
    if (chosen == nullptr) return;  // all slots busy
    --chosen->free_slots;
    run_map_task_on(*chosen, next_split_++);
  }
}

void SparkApp::run_map_task_on(Executor& executor, std::size_t split_index) {
  // Task dispatch is an RPC, then the standard read+compute pipeline —
  // but with NO spill: results stay in executor memory (the RDD cache).
  sim_.schedule_after(config_.task_dispatch, [this, &executor, split_index] {
    mr::MapTaskOptions options;
    options.spill_decider = [](Bytes) { return false; };  // in-memory RDD
    mr::TaskEnv env{sim_, cluster_, hdfs_, mr_config_, nullptr};
    run_map_task(env, spec_, splits_[split_index], executor.container.node, options,
                 [this, &executor](mr::MapTaskResult result) {
                   on_map_task_done(executor, std::move(result));
                 });
  }, "spark:task-dispatch");
}

void SparkApp::on_map_task_done(Executor& executor, mr::MapTaskResult result) {
  ++executor.free_slots;
  ++completed_maps_;
  profile_.maps[static_cast<std::size_t>(result.profile.index)] = result.profile;
  profile_.total_map_output += result.outcome.output_bytes;
  profile_.count_map_locality(result.profile.locality, +1);
  // Partition once, as the map finishes; the reduce tasks read shards.
  registry_->announce(result.profile.index, result.outcome);
  map_results_.push_back(std::move(result));
  if (completed_maps_ == static_cast<int>(splits_.size())) {
    profile_.maps_done = sim_.now();
    start_reduce_stage();
    return;
  }
  pump_map_tasks();
}

void SparkApp::start_reduce_stage() {
  const int reducers = std::max(1, spec_.num_reducers);
  profile_.reduces.resize(static_cast<std::size_t>(reducers));
  reduce_outcomes_.resize(static_cast<std::size_t>(reducers));
  shuffled_per_partition_.assign(static_cast<std::size_t>(reducers), 0);
  for (int partition = 0; partition < reducers; ++partition) {
    // Round-robin reduce tasks over executors.
    Executor& executor = executors_[static_cast<std::size_t>(partition) % executors_.size()];
    run_reduce_task(executor, partition);
  }
}

void SparkApp::run_reduce_task(Executor& executor, int partition) {
  const NodeId dst = executor.container.node;
  auto profile = std::make_shared<mr::TaskProfile>();
  profile->index = partition;
  profile->node = dst;
  profile->start = sim_.now();

  // Memory-to-memory shuffle: one flow per (map, partition) shard.
  auto outcomes = std::make_shared<std::vector<mr::MapOutcome>>(map_results_.size());
  auto pending = std::make_shared<int>(static_cast<int>(map_results_.size()));
  auto after_shuffle = [this, profile, outcomes, partition, dst]() {
    profile->read_done = sim_.now();
    const mr::ReduceOutcome outcome = spec_.logic->execute_reduce(*outcomes);
    const Bytes work =
        cluster::Node::cpu_work(sim::SimDuration::seconds(outcome.core_seconds));
    cluster_.node(dst).cpu().start(work, spec_.logic->compute_contention(),
                                   [this, profile, outcome, partition](sim::SimDuration) {
      profile->compute_done = sim_.now();
      profile->output_bytes = outcome.output_bytes;
      char part[32];
      std::snprintf(part, sizeof(part), "/part-%05d", partition);
      hdfs_.write_file(spec_.output_path + part, outcome.output_bytes, profile->node,
                       [this, profile, outcome, partition] {
                         profile->end = sim_.now();
                         profile_.reduces[static_cast<std::size_t>(partition)] = *profile;
                         reduce_outcomes_[static_cast<std::size_t>(partition)] = outcome;
                         if (++reducers_done_ == std::max(1, spec_.num_reducers)) finish();
                       });
    });
  };

  if (map_results_.empty()) {
    sim_.schedule_now(after_shuffle, "spark:empty-shuffle");
    return;
  }
  for (std::size_t m = 0; m < map_results_.size(); ++m) {
    const auto& result = map_results_[m];
    const mr::MapOutcome& shard = registry_->shard(result.profile.index, partition);
    (*outcomes)[m] = shard;
    shuffled_per_partition_[static_cast<std::size_t>(partition)] += shard.output_bytes;
    cluster_.network().start_flow(result.profile.node, dst, shard.output_bytes,
                                  [pending, after_shuffle](sim::SimDuration) {
                                    if (--*pending == 0) after_shuffle();
                                  });
  }
}

void SparkApp::finish() {
  finished_ = true;
  if (heartbeat_event_.valid()) sim_.cancel(heartbeat_event_);
  profile_.reduce = profile_.reduces.back();
  profile_.shuffle_done = sim::SimTime::zero();
  for (const auto& task : profile_.reduces) {
    profile_.shuffle_done = std::max(profile_.shuffle_done, task.read_done);
  }
  for (Bytes bytes : shuffled_per_partition_) profile_.shuffled_bytes += bytes;
  profile_.finish_time = sim_.now();
  std::vector<std::pair<NodeId, int>> per_node;
  per_node.emplace_back(driver_container_.node, 1);
  for (const auto& executor : executors_) per_node.emplace_back(executor.container.node, 1);
  profile_.containers_per_node = per_node;

  rm_.finish_application(app_id_);
  // Executor containers are released by finish_application only for
  // the AM container; release the executors explicitly.
  for (const auto& executor : executors_) rm_.release_container(executor.container);

  mr::JobResult result;
  result.succeeded = true;
  result.profile = profile_;
  for (auto& outcome : reduce_outcomes_) {
    result.profile.output_bytes += outcome.output_bytes;
    result.reduce_results.push_back(outcome.result);
  }
  if (!result.reduce_results.empty()) result.reduce_result = result.reduce_results.front();
  LOG_INFO("spark", "job %s finished in %.2fs", spec_.name.c_str(),
           profile_.elapsed_seconds());
  if (on_complete_) on_complete_(result);
}

}  // namespace mrapid::spark
