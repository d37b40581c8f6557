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
  // The staggered first beat is a one-off delay, so it goes through the
  // queue; the recurring beats ride the nm_heartbeat timer lane.
  heartbeat_event_ = sim_.schedule_after(initial_offset, [this] { heartbeat(); }, "nm:heartbeat");
}

void NodeManager::stop() {
  if (heartbeat_event_.valid()) {
    sim_.cancel(heartbeat_event_);
    heartbeat_event_ = sim::EventId{};
  }
  started_ = false;
}

void NodeManager::heartbeat() {
  rm_.on_nm_heartbeat(node_);
  heartbeat_event_ =
      sim_.schedule_timer(config_.nm_heartbeat, [this] { heartbeat(); }, "nm:heartbeat");
}

void NodeManager::crash() {
  crashed_ = true;
  if (heartbeat_event_.valid()) {
    sim_.cancel(heartbeat_event_);
    heartbeat_event_ = sim::EventId{};
  }
}

void NodeManager::pause_heartbeats(sim::SimDuration duration) {
  if (crashed_ || !started_) return;
  if (heartbeat_event_.valid()) sim_.cancel(heartbeat_event_);
  heartbeat_event_ = sim_.schedule_after(duration, [this] { heartbeat(); }, "nm:heartbeat");
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
