#pragma once

// The ResourceManager: application lifecycle, the RM-side resource
// view of every NodeManager, and the event plumbing between AM
// heartbeats, NM heartbeats and the pluggable scheduler.
//
// Faithful latency structure (paper §II):
//   client submit --(rpc)--> RM queues an AM ask
//   scheduler allocates (baseline: at some NM's next heartbeat)
//   NM launches the AM JVM (t^l) and the AM initialises (am_init)
//   AM heartbeats allocate() every am_heartbeat; with the baseline
//   scheduler new asks are answered no earlier than the *next*
//   heartbeat after an NM reported in — the >= 2-heartbeat path the
//   paper's Figure 2 describes.
//
// Idle heartbeats cost nothing: every NodeManager is a member of the
// simulation's periodic lane (sim/periodic_lane.h). The RM parks a node
// whose next beat can change nothing — alive, nothing to release — and
// keeps the lane awake only while an ask is queued, a membership flip
// has not yet reached the scheduler, or a tracer records heartbeats
// (sync_lane). Parked beats are then counted, not dispatched; the
// on_node_update contract in yarn/scheduler.h is what makes that exact
// (DESIGN.md §5).

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "yarn/config.h"
#include "yarn/node_manager.h"
#include "yarn/node_table.h"
#include "yarn/scheduler.h"

namespace mrapid::yarn {

class ResourceManager : public SchedulerContext {
 public:
  using AmReadyCallback = std::function<void(const Container&)>;

  ResourceManager(cluster::Cluster& cluster, std::unique_ptr<Scheduler> scheduler,
                  YarnConfig config);
  ~ResourceManager() override;

  // Brings up a NodeManager on every worker and starts heartbeats.
  void start();
  void stop();

  // ---- Client API -------------------------------------------------
  // Submits an application; `on_am_ready` fires once the AM container
  // has been allocated, launched and initialised.
  AppId submit_application(std::string name, AmReadyCallback on_am_ready);

  // ---- AM API -----------------------------------------------------
  // One AM heartbeat: hand in new asks, take out satisfied ones. With
  // an immediate scheduler (D+) new asks can be answered in this very
  // call; with the baseline they are answered on a later heartbeat.
  std::vector<Allocation> am_allocate(AppId app, std::vector<Ask> new_asks);
  void release_container(const Container& container);
  void finish_application(AppId app);
  AskId new_ask_id() { return next_ask_id_++; }

  // ---- NM API -----------------------------------------------------
  void on_nm_heartbeat(cluster::NodeId node);
  // A startContainer RPC that never reached a live NM (the node died
  // before the launch): un-account the container and notify its owner.
  void report_launch_failure(const Container& container);

  // ---- Fault recovery ---------------------------------------------
  // Per-app notification hooks, registered by the AM / client layers.
  // `container lost` fires for every non-AM container that disappears
  // with a node; an AM loss instead triggers AM re-execution (up to
  // config().am_max_attempts, re-firing on_am_ready) and calls the
  // am-lost hook so the owner can abandon the dead attempt — or, when
  // attempts are exhausted, fails the app and calls the failure hook.
  void set_container_lost_handler(AppId app, std::function<void(const Container&)> handler);
  void set_am_lost_handler(AppId app, std::function<void()> handler);
  void set_am_failure_handler(AppId app, std::function<void()> handler);

  // Fault injection: kill one running container on a healthy node.
  void kill_container(const Container& container);
  // Expire a node now: mark it dead, requeue everything it ran. The
  // liveness monitor calls this when heartbeats stop for nm_expiry.
  void expire_node(cluster::NodeId node);
  // AM containers currently running, in app-id order (kill victims).
  std::vector<Container> running_am_containers() const;

  // ---- Introspection ---------------------------------------------
  NodeManager& node_manager(cluster::NodeId node);
  Scheduler& scheduler() { return *scheduler_; }
  const YarnConfig& config() const { return config_; }
  cluster::Cluster& cluster() { return cluster_; }
  // True for any id without a live application: finished apps keep no
  // record.
  bool app_finished(AppId app) const;
  std::size_t live_apps() const { return apps_.size(); }
  std::vector<NodeState>& nodes() { return table_.states(); }

  // ---- SchedulerContext -------------------------------------------
  NodeState* node_state(cluster::NodeId id) override { return table_.find(id); }
  NodeTable* node_table() override { return &table_; }
  const cluster::Topology& topology() const override { return cluster_.topology(); }
  ContainerId next_container_id() override {
    live_containers_.insert(next_container_id_);
    return next_container_id_++;
  }
  void deliver_allocation(const Allocation& allocation) override;
  sim::Simulation& simulation() override { return sim_; }

 private:
  // One per live application; finish_application erases it, so the RM
  // holds O(live apps) however long the stream.
  struct AppRecord {
    AppId id = kInvalidApp;
    std::string name;
    AskId am_ask = 0;
    bool am_running = false;
    Container am_container;
    AmReadyCallback on_am_ready;
    std::vector<Allocation> pending;  // waiting for the AM's next heartbeat
    int am_attempts = 1;              // AM launches so far, first included
    std::function<void(const Container&)> on_container_lost;
    std::function<void()> on_am_lost;
    std::function<void()> on_am_failed;
  };

  AppRecord* app(AppId id);
  void submit_am_ask(AppId id, const char* label);
  void notify_container_lost(const Container& container);
  void handle_am_loss(const Container& container);
  void schedule_liveness_check();
  void liveness_check();
  // Wakes the periodic lane while a beat can change something (asks
  // queued, a membership flip not yet seen by the scheduler, or a
  // tracer recording heartbeats) and lets it sleep otherwise.
  void sync_lane();
  // pending_release += amount, unparking the node: its next beat frees
  // the resources.
  void add_pending_release(NodeState& state, Resource amount);
  // A container's terminal transition (released or lost) must happen
  // exactly once, however many recovery paths race to report it — a
  // node expiry, an in-flight launch-failure RPC and an AM teardown
  // can all target the same container. First caller wins; the rest
  // must neither re-emit the event nor re-credit the resources. Every
  // container id is minted by next_container_id(), so "terminal" is
  // "no longer live", and the RM only remembers the live ones.
  bool mark_container_terminal(ContainerId id) { return live_containers_.erase(id) != 0; }
  bool container_terminal(ContainerId id) const { return live_containers_.count(id) == 0; }
  // As mark_container_terminal, but also tells the scheduler (its
  // running-container table and service-time samples feed the
  // backfilling shadow schedules and the waiting-time estimator).
  bool mark_terminal_and_notify(const Container& container) {
    if (!mark_container_terminal(container.id)) return false;
    scheduler_->on_container_finished(container);
    return true;
  }

  cluster::Cluster& cluster_;
  sim::Simulation& sim_;
  std::unique_ptr<Scheduler> scheduler_;
  YarnConfig config_;
  NodeTable table_;
  std::unordered_map<cluster::NodeId, std::unique_ptr<NodeManager>> node_managers_;
  std::unordered_map<AppId, AppRecord> apps_;
  AppId next_app_id_ = 1;
  ContainerId next_container_id_ = 1;
  std::unordered_set<ContainerId> live_containers_;  // minted, not yet terminal
  AskId next_ask_id_ = 1;
  bool started_ = false;
  // Set by a membership flip (boot, expiry, blacklisting) until the
  // next beat's on_node_update refreshes the scheduler's view.
  bool refresh_due_ = false;
  sim::EventId liveness_event_{};
};

}  // namespace mrapid::yarn
