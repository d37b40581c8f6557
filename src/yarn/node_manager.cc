#include "yarn/node_manager.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "sim/trace.h"
#include "yarn/resource_manager.h"

namespace mrapid::yarn {

NodeManager::NodeManager(cluster::Cluster& cluster, cluster::NodeId node, ResourceManager& rm,
                         const YarnConfig& config)
    : cluster_(cluster), sim_(cluster.simulation()), node_(node), rm_(rm), config_(config) {}

NodeManager::~NodeManager() { stop(); }

Resource NodeManager::capacity() const {
  const cluster::NodeSpec& spec = cluster_.node(node_).spec();
  Resource capacity;
  capacity.vcores = spec.cores * config_.containers_per_core;
  capacity.memory_mb =
      std::max<std::int64_t>(0, spec.memory / (1024 * 1024) - config_.nm_memory_reserve_mb);
  return capacity;
}

void NodeManager::start(sim::SimDuration initial_offset) {
  assert(!started_);
  started_ = true;
  join(sim_.now() + initial_offset);
}

void NodeManager::stop() {
  leave();
  started_ = false;
}

void NodeManager::join(sim::SimTime first_beat) {
  beat_ = sim_.join_lane(config_.nm_heartbeat, first_beat, [this] { heartbeat(); },
                         "nm:heartbeat");
  sim_.park(beat_, parked_);
}

void NodeManager::leave() {
  if (beat_.valid()) {
    last_beat_ = sim_.last_fire(beat_);
    sim_.leave_lane(beat_);
    beat_ = {};
  }
  if (resume_event_.valid()) {
    sim_.cancel(resume_event_);
    resume_event_ = sim::EventId{};
  }
}

void NodeManager::set_parked(bool parked) {
  parked_ = parked;
  if (beat_.valid()) sim_.park(beat_, parked);
}

sim::SimTime NodeManager::last_heartbeat() const {
  return beat_.valid() ? sim_.last_fire(beat_) : last_beat_;
}

void NodeManager::heartbeat() { rm_.on_nm_heartbeat(node_); }

void NodeManager::crash() {
  crashed_ = true;
  leave();
}

void NodeManager::pause_heartbeats(sim::SimDuration duration) {
  if (crashed_ || !started_) return;
  leave();
  resume_event_ = sim_.schedule_after(duration, [this] {
    resume_event_ = sim::EventId{};
    heartbeat();
    join(sim_.now() + config_.nm_heartbeat);
  }, "nm:heartbeat");
}

std::vector<Container> NodeManager::take_running() {
  std::vector<Container> out;
  out.reserve(running_.size());
  for (const auto& [id, container] : running_) out.push_back(container);
  running_.clear();
  std::sort(out.begin(), out.end(),
            [](const Container& a, const Container& b) { return a.id < b.id; });
  return out;
}

void NodeManager::launch_container(const Container& container, std::function<void()> on_running,
                                   sim::SimDuration extra_init) {
  assert(container.node == node_);
  if (crashed_) {
    // startContainer RPC into a dead node: the JVM never comes up.
    // Report the container lost once the RPC would have timed out so
    // the AM re-requests elsewhere.
    sim_.schedule_after(config_.rpc_latency + config_.container_launch,
                        [this, container] { rm_.report_launch_failure(container); },
                        "nm:launch-dead");
    return;
  }
  running_.emplace(container.id, container);
  ++launched_total_;
  MRAPID_TRACE(sim_, sim::TraceCategory::kContainer, "container.launched",
               {"id", container.id}, {"app", container.app}, {"node", node_});
  const sim::SimDuration delay = config_.rpc_latency + config_.container_launch + extra_init;
  LOG_DEBUG("nm", "%s launching container %lld (%s)", cluster_.node(node_).name().c_str(),
            static_cast<long long>(container.id), container.resource.to_string().c_str());
  sim_.schedule_after(delay, std::move(on_running), "nm:launch");
}

void NodeManager::stop_container(ContainerId id) { running_.erase(id); }

}  // namespace mrapid::yarn
