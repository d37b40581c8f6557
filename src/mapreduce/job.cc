#include "mapreduce/job.h"

#include <algorithm>

namespace mrapid::mr {

const char* mode_name(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kHadoopDistributed: return "Hadoop";
    case ExecutionMode::kHadoopUber: return "Uber";
    case ExecutionMode::kDPlus: return "D+";
    case ExecutionMode::kUPlus: return "U+";
    case ExecutionMode::kSparkLite: return "Spark";
  }
  return "?";
}

const char* injected_bug_name(InjectedBug bug) {
  switch (bug) {
    case InjectedBug::kNone: return "none";
    case InjectedBug::kDropShard: return "drop-shard";
    case InjectedBug::kDupShard: return "dup-shard";
  }
  return "?";
}

std::vector<MapOutcome> JobLogic::partition_map_output(const MapOutcome& outcome,
                                                       int reducers) const {
  std::vector<MapOutcome> shards(static_cast<std::size_t>(reducers));
  if (reducers > 0) shards[0] = outcome;
  return shards;
}

int JobProfile::max_containers_on_one_node() const {
  int peak = 0;
  for (const auto& [node, count] : containers_per_node) peak = std::max(peak, count);
  return peak;
}

void JobProfile::count_map_locality(cluster::Locality locality, int delta) {
  std::size_t& bucket = locality == cluster::Locality::kNodeLocal   ? node_local_maps
                        : locality == cluster::Locality::kRackLocal ? rack_local_maps
                                                                    : off_rack_maps;
  bucket += static_cast<std::size_t>(delta);  // modular: -1 retracts one
}

sim::SimTime client_poll_time(sim::SimTime submit, sim::SimTime done, sim::SimDuration poll) {
  const std::int64_t poll_us = poll.as_micros();
  const std::int64_t elapsed_us = (done - submit).as_micros();
  const std::int64_t aligned_us = ((elapsed_us + poll_us - 1) / poll_us) * poll_us;
  return submit + sim::SimDuration::micros(aligned_us);
}

}  // namespace mrapid::mr
