#include "driver/probes.h"

#include "mrapid/scheduler_registry.h"

namespace mrapid::perfbench {

std::string timed_scheduler_name(const std::string& policy) { return "perfbench-timed:" + policy; }

void register_timed_schedulers() {
  core::SchedulerRegistry& registry = core::SchedulerRegistry::instance();
  for (const std::string& policy : registry.names()) {
    registry.add(timed_scheduler_name(policy), "benchmark probe: times " + policy,
                 [policy](const core::SchedulerBuildConfig& config) {
                   return std::make_unique<TimedScheduler>(
                       core::SchedulerRegistry::instance().make(policy, config));
                 });
  }
}

}  // namespace mrapid::perfbench
