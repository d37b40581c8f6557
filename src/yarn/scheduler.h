#pragma once

// The pluggable scheduler seam.
//
// The ResourceManager translates heartbeats into the two events the
// paper names: an AM resource request becomes CONTAINER_STATUS_UPDATE
// (-> on_container_request) and an NM heartbeat becomes
// NODE_STATUS_UPDATE (-> on_node_update). The baseline Hadoop
// scheduler only allocates inside on_node_update — that is precisely
// the >= 2-heartbeat latency and greedy packing MRapid's D+ scheduler
// removes by allocating inside on_container_request from the RM's own
// cluster-resource snapshot.
//
// Concrete schedulers are PolicyScheduler adapters wrapping a pure
// ISchedulingAlgorithm (yarn/scheduling_algorithm.h); this header only
// defines the event seam the RM drives and the services it provides.

#include <cstddef>
#include <vector>

#include "cluster/topology.h"
#include "yarn/records.h"

namespace mrapid::sim {
class Simulation;
}

namespace mrapid::yarn {

class WaitingTimeEstimator;
class NodeTable;

// The RM-side view of one NodeManager's resources.
struct NodeState {
  cluster::NodeId id = cluster::kInvalidNode;
  Resource capacity;
  Resource used;
  // Containers released since this node's last heartbeat: the real RM
  // only learns about freed resources when the NM reports, so the
  // schedulable view lags by up to one NM heartbeat.
  Resource pending_release;

  // Liveness view (fault injection): a node whose heartbeats stopped
  // long enough is expired (!alive) and its containers requeued; one
  // that expired `node_blacklist_threshold` times is blacklisted and
  // never scheduled again even after it rejoins.
  bool alive = true;
  bool blacklisted = false;
  int failures = 0;

  Resource available() const { return capacity - used; }
  bool schedulable() const { return alive && !blacklisted; }
};

// Services the RM exposes to its scheduler.
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;
  virtual NodeState* node_state(cluster::NodeId id) = 0;
  // The node bookkeeping (yarn/node_table.h) that owns every NodeState.
  // Never null; ALL node mutations must go through it.
  virtual NodeTable* node_table() = 0;
  virtual const cluster::Topology& topology() const = 0;
  virtual ContainerId next_container_id() = 0;
  // Hands a satisfied ask to the RM, which buffers it for (or, for an
  // immediate scheduler, returns it to) the owning AM.
  virtual void deliver_allocation(const Allocation& allocation) = 0;
  // The clock and trace sink the scheduler lives in.
  virtual sim::Simulation& simulation() = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual const char* name() const = 0;

  // True when on_container_request() allocates synchronously, letting
  // the RM answer the AM in the same heartbeat (MRapid D+).
  virtual bool allocates_immediately() const = 0;

  virtual void bind(SchedulerContext* context) { context_ = context; }

  // CONTAINER_STATUS_UPDATE: new asks from an AM heartbeat.
  virtual void on_container_request(std::vector<Ask> asks) = 0;

  // NODE_STATUS_UPDATE: an NM reported in; its lagged resource view
  // has just been refreshed.
  //
  // Contract: with no asks queued (queued_asks() == 0) and node
  // membership (alive / blacklisted) unchanged since the previous
  // call, this call changes nothing. The RM relies on it to skip such
  // beats: a node that is alive with nothing to release is parked in
  // the simulation's periodic lane, and its beats are counted instead
  // of dispatched while no ask waits (yarn/resource_manager.h). All
  // five registered policies hold it: each serves only queued asks,
  // and PolicyScheduler's per-update refresh of the wait estimator's
  // server count reads membership alone.
  virtual void on_node_update(cluster::NodeId node) = 0;

  // Drop any still-queued asks of a finished/killed app.
  virtual void cancel_asks(AppId app) = 0;

  virtual std::size_t queued_asks() const = 0;

  // A container this scheduler allocated reached a terminal state
  // (released, lost or killed): the service-time sample behind the
  // backfilling shadow schedules and the waiting-time estimator.
  virtual void on_container_finished(const Container& container) { (void)container; }

  // The per-queue waiting-time predictor, when this scheduler keeps
  // one (PolicyScheduler does); null otherwise. MRapid's DecisionMaker
  // reads it for Eq. 3's queue-delay term.
  virtual const WaitingTimeEstimator* wait_estimator() const { return nullptr; }

  // Expected per-container runtime for `app`'s future asks, from the
  // framework's history/profiler — the backfilling policies' shadow
  // schedules are only as good as these estimates.
  virtual void set_app_runtime_hint(AppId app, double seconds) {
    (void)app;
    (void)seconds;
  }

 protected:
  // Locality of serving `ask` on `node`, judged against the ask's
  // preferred (replica-holding) nodes.
  cluster::Locality judge_locality(const Ask& ask, cluster::NodeId node) const;

  SchedulerContext* context_ = nullptr;
};

}  // namespace mrapid::yarn
