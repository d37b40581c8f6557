#include "yarn/resource_manager.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "sim/trace.h"

namespace mrapid::yarn {

namespace {

void trace_asks(sim::Simulation& sim, const std::vector<Ask>& asks) {
  for (const Ask& ask : asks) {
    MRAPID_TRACE(sim, sim::TraceCategory::kContainer, "container.requested",
                 {"ask", static_cast<std::int64_t>(ask.id)}, {"app", ask.app},
                 {"vcores", ask.capability.vcores}, {"mem", ask.capability.memory_mb});
  }
}

}  // namespace

ResourceManager::ResourceManager(cluster::Cluster& cluster, std::unique_ptr<Scheduler> scheduler,
                                 YarnConfig config)
    : cluster_(cluster),
      sim_(cluster.simulation()),
      scheduler_(std::move(scheduler)),
      config_(config) {
  scheduler_->bind(this);
}

ResourceManager::~ResourceManager() { stop(); }

void ResourceManager::start() {
  assert(!started_);
  started_ = true;
  const auto& workers = cluster_.workers();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const cluster::NodeId node = workers[i];
    auto nm = std::make_unique<NodeManager>(cluster_, node, *this, config_);
    NodeState state;
    state.id = node;
    state.capacity = nm->capacity();
    table_.add_node(state);
    MRAPID_TRACE(sim_, sim::TraceCategory::kNode, "node.capacity", {"node", node},
                 {"vcores", state.capacity.vcores}, {"mem", state.capacity.memory_mb});
    // Stagger heartbeats deterministically across the period so the
    // RM sees a steady trickle of NODE_STATUS_UPDATEs, as in a real
    // cluster.
    const sim::SimDuration offset =
        sim::SimDuration::micros(static_cast<std::int64_t>(i) *
                                 config_.nm_heartbeat.as_micros() /
                                 static_cast<std::int64_t>(workers.size()));
    nm->start(offset);
    node_managers_.emplace(node, std::move(nm));
    last_heartbeat_[node] = sim_.now();
  }
  if (config_.track_liveness) {
    // The liveness monitor polls at a quarter of the expiry interval,
    // so a silent node is expired within [nm_expiry, 1.25 * nm_expiry)
    // of its last beat.
    liveness_event_ = sim_.schedule_timer(
        sim::SimDuration::micros(config_.nm_expiry.as_micros() / 4),
        [this] { liveness_check(); }, "rm:liveness");
  }
}

void ResourceManager::stop() {
  for (auto& [id, nm] : node_managers_) nm->stop();
  if (liveness_event_.valid()) {
    sim_.cancel(liveness_event_);
    liveness_event_ = sim::EventId{};
  }
  started_ = false;
}

void ResourceManager::liveness_check() {
  for (auto& state : table_.states()) {
    if (!state.alive) continue;
    if (sim_.now() - last_heartbeat_[state.id] >= config_.nm_expiry) {
      expire_node(state.id);
    }
  }
  liveness_event_ = sim_.schedule_timer(
      sim::SimDuration::micros(config_.nm_expiry.as_micros() / 4),
      [this] { liveness_check(); }, "rm:liveness");
}

ResourceManager::AppRecord* ResourceManager::app(AppId id) {
  auto it = apps_.find(id);
  return it == apps_.end() ? nullptr : &it->second;
}

bool ResourceManager::app_finished(AppId id) const {
  auto it = apps_.find(id);
  return it == apps_.end() || it->second.finished;
}

NodeManager& ResourceManager::node_manager(cluster::NodeId node) {
  auto it = node_managers_.find(node);
  assert(it != node_managers_.end());
  return *it->second;
}

AppId ResourceManager::submit_application(std::string name, AmReadyCallback on_am_ready) {
  const AppId id = next_app_id_++;
  AppRecord record;
  record.id = id;
  record.name = std::move(name);
  record.on_am_ready = std::move(on_am_ready);
  record.am_ask = new_ask_id();
  apps_.emplace(id, std::move(record));

  LOG_INFO("rm", "app %d (%s) submitted", id, apps_.at(id).name.c_str());
  MRAPID_TRACE(sim_, sim::TraceCategory::kApp, "app.submitted", {"app", id},
               {"name", apps_.at(id).name});
  // Submission RPC, then the AM container ask enters the scheduler.
  submit_am_ask(id, "rm:submit");
  return id;
}

void ResourceManager::submit_am_ask(AppId id, const char* label) {
  sim_.schedule_after(config_.rpc_latency, [this, id] {
    AppRecord* record = app(id);
    if (record == nullptr || record->finished) return;
    Ask ask;
    ask.id = record->am_ask;
    ask.app = id;
    ask.capability = config_.am_container;
    ask.long_lived = true;  // the AM runs for the app's whole lifetime
    std::vector<Ask> asks{ask};
    trace_asks(sim_, asks);
    scheduler_->on_container_request(std::move(asks));
  }, label);
}

void ResourceManager::deliver_allocation(const Allocation& allocation) {
  MRAPID_TRACE(sim_, sim::TraceCategory::kContainer, "container.allocated",
               {"id", allocation.container.id}, {"ask", static_cast<std::int64_t>(allocation.ask)},
               {"app", allocation.container.app}, {"node", allocation.container.node},
               {"vcores", allocation.container.resource.vcores},
               {"mem", allocation.container.resource.memory_mb});
  AppRecord* record = app(allocation.container.app);
  if (record == nullptr || record->finished) {
    // Allocation raced with app completion: hand the resources back.
    release_container(allocation.container);
    return;
  }
  if (allocation.ask == record->am_ask) {
    // This is the app's AM container: launch it straight away (the RM
    // drives AM launch itself; no AM heartbeat exists yet).
    record->am_container = allocation.container;
    const AppId id = record->id;
    node_manager(allocation.container.node)
        .launch_container(allocation.container,
                          [this, id, cid = allocation.container.id] {
                            AppRecord* r = app(id);
                            if (r == nullptr || r->finished) return;
                            // Stale launch: the app moved on to a new
                            // AM attempt while this JVM was coming up.
                            if (r->am_container.id != cid) return;
                            r->am_running = true;
                            LOG_INFO("rm", "app %d AM running on node %d", id,
                                     r->am_container.node);
                            // A copy: the handler may finish the app,
                            // which drops the record's handlers.
                            const AmReadyCallback ready = r->on_am_ready;
                            ready(r->am_container);
                          },
                          config_.am_init);
    return;
  }
  record->pending.push_back(allocation);
}

std::vector<Allocation> ResourceManager::am_allocate(AppId id, std::vector<Ask> new_asks) {
  AppRecord* record = app(id);
  assert(record != nullptr && !record->finished);
  if (!new_asks.empty()) {
    trace_asks(sim_, new_asks);
    scheduler_->on_container_request(std::move(new_asks));
  }
  // An immediate scheduler (D+) has already pushed its answers into
  // `pending` during on_container_request, so they go back in the same
  // heartbeat; the baseline returns whatever NM heartbeats produced
  // since the AM last called.
  std::vector<Allocation> out;
  out.swap(record->pending);
  return out;
}

void ResourceManager::release_container(const Container& container) {
  if (!mark_terminal_and_notify(container)) return;
  NodeState* state = node_state(container.node);
  assert(state != nullptr);
  MRAPID_TRACE(sim_, sim::TraceCategory::kContainer, "container.released",
               {"id", container.id}, {"app", container.app}, {"node", container.node},
               {"vcores", container.resource.vcores}, {"mem", container.resource.memory_mb});
  // The RM's schedulable view only shrinks when the NM next reports.
  table_.add_pending_release(*state, container.resource);
  node_manager(container.node).stop_container(container.id);
}

void ResourceManager::finish_application(AppId id) {
  AppRecord* record = app(id);
  if (record == nullptr || record->finished) return;
  record->finished = true;
  // Nothing calls a finished app's handlers again; drop them with
  // whatever they captured (the submission and AM-side state).
  record->on_am_ready = nullptr;
  record->on_container_lost = nullptr;
  record->on_am_lost = nullptr;
  record->on_am_failed = nullptr;
  scheduler_->cancel_asks(id);
  for (const auto& allocation : record->pending) release_container(allocation.container);
  record->pending.clear();
  if (record->am_running || record->am_container.id != 0) {
    release_container(record->am_container);
  }
  LOG_INFO("rm", "app %d (%s) finished", id, record->name.c_str());
  MRAPID_TRACE(sim_, sim::TraceCategory::kApp, "app.finished", {"app", id});
}

void ResourceManager::on_nm_heartbeat(cluster::NodeId node) {
  MRAPID_TRACE(sim_, sim::TraceCategory::kHeartbeat, "nm.heartbeat", {"node", node});
  NodeState* state = node_state(node);
  assert(state != nullptr);
  if (config_.track_liveness) {
    last_heartbeat_[node] = sim_.now();
    if (!state->alive) {
      // A silent-but-running node came back. Its containers were
      // requeued at expiry, so the resync tells the NM to discard
      // everything and the node rejoins empty (real YARN kills
      // unknown containers on RM resync).
      table_.void_resources(*state);
      table_.set_alive(*state, true);
      node_manager(node).take_running();
      MRAPID_TRACE(sim_, sim::TraceCategory::kFault, "node.rejoined", {"node", node});
    }
  }
  table_.apply_pending_release(*state);
  scheduler_->on_node_update(node);
}

void ResourceManager::expire_node(cluster::NodeId node) {
  NodeState* state = node_state(node);
  assert(state != nullptr);
  if (!state->alive) return;
  table_.set_alive(*state, false);
  table_.record_failure(*state);
  LOG_INFO("rm", "node %d expired (failure #%d)", node, state->failures);
  MRAPID_TRACE(sim_, sim::TraceCategory::kFault, "node.expired", {"node", node},
               {"failures", state->failures});
  if (!state->blacklisted && state->failures >= config_.node_blacklist_threshold) {
    table_.set_blacklisted(*state, true);
    MRAPID_TRACE(sim_, sim::TraceCategory::kFault, "node.blacklisted", {"node", node});
  }
  // The RM's resource view of a dead node is void.
  table_.void_resources(*state);
  // Requeue what the node was running: task containers first, AM
  // containers after — an AM-loss handler resubmits the AM ask, and
  // that ask must not race its own app's dead task containers.
  const auto lost = node_manager(node).take_running();
  std::vector<Container> lost_ams;
  for (const Container& container : lost) {
    const AppRecord* record = app(container.app);
    if (record != nullptr && !record->finished && record->am_container.id == container.id) {
      lost_ams.push_back(container);
    } else {
      notify_container_lost(container);
    }
  }
  for (const Container& container : lost_ams) {
    if (!mark_terminal_and_notify(container)) continue;
    MRAPID_TRACE(sim_, sim::TraceCategory::kContainer, "container.lost",
                 {"id", container.id}, {"app", container.app}, {"node", container.node});
    handle_am_loss(container);
  }
}

void ResourceManager::notify_container_lost(const Container& container) {
  if (!mark_terminal_and_notify(container)) return;
  MRAPID_TRACE(sim_, sim::TraceCategory::kContainer, "container.lost",
               {"id", container.id}, {"app", container.app}, {"node", container.node});
  AppRecord* record = app(container.app);
  if (record == nullptr || record->finished || !record->on_container_lost) return;
  const auto on_lost = record->on_container_lost;  // may finish the app
  on_lost(container);
}

void ResourceManager::handle_am_loss(const Container& container) {
  AppRecord* record = app(container.app);
  if (record == nullptr || record->finished) return;
  LOG_INFO("rm", "app %d lost its AM (attempt %d) on node %d", record->id,
           record->am_attempts, container.node);
  MRAPID_TRACE(sim_, sim::TraceCategory::kFault, "am.lost", {"app", record->id},
               {"node", container.node}, {"attempt", record->am_attempts});
  record->am_running = false;
  record->am_container = Container{};
  // Everything the dead AM asked for or had not yet picked up is void.
  scheduler_->cancel_asks(record->id);
  for (const auto& allocation : record->pending) release_container(allocation.container);
  record->pending.clear();
  if (record->on_am_lost) {
    const auto on_lost = record->on_am_lost;  // a copy, as in notify_container_lost
    on_lost();
  }
  if (record->am_attempts >= config_.am_max_attempts) {
    MRAPID_TRACE(sim_, sim::TraceCategory::kApp, "app.am_failed", {"app", record->id},
                 {"attempts", record->am_attempts});
    const auto on_failed = record->on_am_failed;
    finish_application(record->id);
    if (on_failed) on_failed();
    return;
  }
  ++record->am_attempts;
  MRAPID_TRACE(sim_, sim::TraceCategory::kApp, "app.am_restart", {"app", record->id},
               {"attempt", record->am_attempts});
  record->am_ask = new_ask_id();
  submit_am_ask(record->id, "rm:am-restart");
}

void ResourceManager::report_launch_failure(const Container& container) {
  // Stale RPC: the container was already released or reported lost
  // through another recovery path (AM teardown, node expiry) while
  // this startContainer was timing out.
  if (container_terminal(container.id)) return;
  NodeState* state = node_state(container.node);
  if (state != nullptr && state->alive) {
    // The node has not expired yet; un-account the container the
    // scheduler charged at allocation (the NM never started it).
    table_.uncharge(*state, container.resource);
  }
  AppRecord* record = app(container.app);
  if (record != nullptr && !record->finished && record->am_container.id == container.id) {
    mark_terminal_and_notify(container);
    MRAPID_TRACE(sim_, sim::TraceCategory::kContainer, "container.lost",
                 {"id", container.id}, {"app", container.app}, {"node", container.node});
    handle_am_loss(container);
    return;
  }
  notify_container_lost(container);
}

void ResourceManager::set_container_lost_handler(AppId id,
                                                 std::function<void(const Container&)> handler) {
  AppRecord* record = app(id);
  assert(record != nullptr);
  record->on_container_lost = std::move(handler);
}

void ResourceManager::set_am_lost_handler(AppId id, std::function<void()> handler) {
  AppRecord* record = app(id);
  assert(record != nullptr);
  record->on_am_lost = std::move(handler);
}

void ResourceManager::set_am_failure_handler(AppId id, std::function<void()> handler) {
  AppRecord* record = app(id);
  assert(record != nullptr);
  record->on_am_failed = std::move(handler);
}

void ResourceManager::kill_container(const Container& container) {
  // Fault injection: the container's JVM dies on an otherwise healthy
  // node, so the NM notices the exit and the resources free on its
  // next heartbeat, like a normal release.
  node_manager(container.node).stop_container(container.id);
  NodeState* state = node_state(container.node);
  if (state != nullptr && state->alive) {
    table_.add_pending_release(*state, container.resource);
  }
  AppRecord* record = app(container.app);
  const bool is_am = record != nullptr && !record->finished &&
                     record->am_container.id == container.id;
  if (is_am) {
    if (mark_terminal_and_notify(container)) {
      MRAPID_TRACE(sim_, sim::TraceCategory::kContainer, "container.lost",
                   {"id", container.id}, {"app", container.app}, {"node", container.node});
      handle_am_loss(container);
    }
  } else {
    notify_container_lost(container);
  }
}

std::vector<Container> ResourceManager::running_am_containers() const {
  std::vector<Container> out;
  for (const auto& [id, record] : apps_) {
    if (!record.finished && record.am_running) out.push_back(record.am_container);
  }
  std::sort(out.begin(), out.end(),
            [](const Container& a, const Container& b) { return a.app < b.app; });
  return out;
}

}  // namespace mrapid::yarn
