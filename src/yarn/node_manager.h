#pragma once

// A NodeManager: owns the containers running on one worker node,
// heartbeats to the RM on a fixed period (staggered per node) as a
// member of the simulation's periodic lane, and charges container
// launch time (localisation + JVM spin-up).

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "sim/simulation.h"
#include "yarn/config.h"
#include "yarn/records.h"

namespace mrapid::yarn {

class ResourceManager;

class NodeManager {
 public:
  NodeManager(cluster::Cluster& cluster, cluster::NodeId node, ResourceManager& rm,
              const YarnConfig& config);
  ~NodeManager();

  NodeManager(const NodeManager&) = delete;
  NodeManager& operator=(const NodeManager&) = delete;

  cluster::NodeId node_id() const { return node_; }

  // Resources this NM advertises to the RM.
  Resource capacity() const;

  // Begin heartbeating: join the periodic lane with the first beat
  // `initial_offset` from now, which fixes this node's phase.
  void start(sim::SimDuration initial_offset);
  void stop();

  // The RM parks a node whose next beat would change nothing; its
  // beats are then counted instead of dispatched while the lane
  // sleeps. Kept across pauses.
  void set_parked(bool parked);
  // Time of the latest beat (dispatched or counted), or of start().
  sim::SimTime last_heartbeat() const;

  // AM -> NM: start a container. `on_running` fires once the RPC has
  // arrived and the JVM is up (rpc_latency + container_launch +
  // extra_init).
  void launch_container(const Container& container, std::function<void()> on_running,
                        sim::SimDuration extra_init = sim::SimDuration::zero());
  void stop_container(ContainerId id);

  std::size_t running_containers() const { return running_.size(); }
  // Total containers ever launched here (imbalance metrics).
  std::size_t launched_total() const { return launched_total_; }

  // ---- fault injection ------------------------------------------------
  // Node death: heartbeats stop for good (the NM leaves the lane);
  // launch_container() on a crashed NM reports the container lost to
  // the RM after the RPC timeout instead of ever starting it.
  void crash();
  bool crashed() const { return crashed_; }
  // Heartbeat loss: the node keeps running but goes silent. It leaves
  // the lane; the next beat fires after `duration` and rejoins it, so
  // the resume instant becomes the node's new phase.
  void pause_heartbeats(sim::SimDuration duration);
  // RM resync after expiry: hand over (and forget) every container
  // this NM still believes is running, in container-id order.
  std::vector<Container> take_running();

 private:
  void heartbeat();
  void join(sim::SimTime first_beat);
  void leave();

  cluster::Cluster& cluster_;
  sim::Simulation& sim_;
  cluster::NodeId node_;
  ResourceManager& rm_;
  const YarnConfig& config_;
  std::unordered_map<ContainerId, Container> running_;
  std::size_t launched_total_ = 0;
  sim::Simulation::LaneMember beat_{};
  sim::EventId resume_event_{};  // the beat that ends a pause
  sim::SimTime last_beat_;       // while out of the lane
  bool parked_ = false;
  bool started_ = false;
  bool crashed_ = false;
};

}  // namespace mrapid::yarn
