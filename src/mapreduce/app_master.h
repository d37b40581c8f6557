#pragma once

// The distributed-mode ApplicationMaster: one container per task,
// resources obtained from the RM scheduler over the AM heartbeat.
// Serves both the Hadoop baseline and MRapid's D+ mode — the
// difference between the two lives entirely in the RM's scheduler
// (greedy-on-node-heartbeat vs Algorithm 1 in the same heartbeat).

#include <unordered_map>

#include "mapreduce/am_base.h"

namespace mrapid::mr {

class MRAppMaster : public AmBase {
 public:
  using AmBase::AmBase;

  void start(const yarn::Container& am_container) override;

 private:
  void heartbeat();
  void on_allocation(const yarn::Allocation& allocation);
  void run_map(const yarn::Container& container, std::size_t task_index);
  void on_map_done(const yarn::Container& container, MapTaskResult result);
  // The task umbilical delivered a successful map's status.
  void on_map_reported(const yarn::Container& container, MapTaskResult result);
  void on_map_failed(const yarn::Container& container, const MapTaskResult& result);
  void maybe_request_reducers();
  void run_reduce(const yarn::Container& container, int partition);

  // One container ask (plus its `*.scheduled` trace) for the next
  // attempt of map `task` / attempt `attempt` of reducer `partition`.
  void ask_for_map(std::size_t task);
  void ask_for_reduce(int partition, int attempt);

  // AmBase hooks: stop the heartbeat and give back live task
  // containers (kill, failure); record the container spread
  // (success); cancel the pool app's asks and trace the failure.
  void stop_tasks() override;
  void before_success() override;
  void after_failure() override;

  // ---- fault recovery ----
  // A container disappeared with its node (or was killed): requeue the
  // work it carried. Lost containers are never released back — the RM
  // already wrote them off.
  void on_container_lost(const yarn::Container& container);
  // A reducer could not fetch a completed map's output (source node
  // down): invalidate that map and re-run it.
  void on_fetch_failed(int map_index);
  // Ask the scheduler for a fresh attempt of `task`; results of older
  // attempts become stale. Fails the job past the attempt budget.
  void requeue_map(std::size_t task);
  void requeue_reduce(int partition);

  std::vector<yarn::Ask> asks_to_send_;
  std::unordered_map<yarn::AskId, std::size_t> ask_to_task_;
  // Results of attempts below this floor are stale (their container
  // was written off) and must be ignored when they straggle in.
  std::vector<int> min_valid_attempt_;
  std::vector<char> map_done_;  // per task: result currently counted
  std::unordered_map<yarn::AskId, int> reducer_asks_;  // ask -> partition
  bool reducers_requested_ = false;
  std::unordered_map<yarn::ContainerId, yarn::Container> live_containers_;
  std::unordered_map<yarn::ContainerId, std::size_t> container_to_map_;
  std::unordered_map<yarn::ContainerId, int> container_to_reduce_;
  std::unordered_map<cluster::NodeId, int> containers_per_node_;
  // Superseded reducer attempts, cancelled. Their in-flight fluid
  // transfers still point at them and are counted in tasks_, so they
  // stay until this attempt is quiescent and freed with it.
  std::vector<std::unique_ptr<ReduceRunner>> retired_runners_;
  std::vector<int> reduce_attempt_;  // per partition: current generation
  sim::EventId heartbeat_event_{};
  bool first_map_seen_ = false;
};

}  // namespace mrapid::mr
