#include "check/reference.h"

#include <algorithm>

#include "cluster/cluster.h"
#include "hdfs/hdfs.h"
#include "mapreduce/split.h"
#include "sim/simulation.h"
#include "workloads/dataset_cache.h"

namespace mrapid::check {

std::uint64_t reference_digest(const FuzzScenario& scenario, wl::Workload& workload) {
  // Every map is computed here, never read from the memo the runs
  // under test share.
  const wl::DatasetCache::DerivedBypass afresh;
  // A minimal world: just enough simulator to stage files and compute
  // splits (block placement draws from the simulation RNG, but the
  // *split geometry* — what the answer depends on — is placement
  // independent).
  const harness::WorldConfig config = world_config(scenario);
  sim::Simulation sim(config.seed);
  cluster::Cluster cluster(sim, config.cluster);
  hdfs::Hdfs hdfs(cluster, config.hdfs);

  const std::vector<std::string> paths = workload.stage(hdfs);
  const std::vector<mr::InputSplit> splits = mr::compute_splits(hdfs, paths);
  const int reducers = std::max(1, scenario.reducers);

  // shards[r][m] = map m's slice for reducer r, in map-index order.
  std::vector<std::vector<mr::MapOutcome>> shards(static_cast<std::size_t>(reducers));
  for (auto& per_reducer : shards) per_reducer.reserve(splits.size());
  for (const mr::InputSplit& split : splits) {
    const mr::MapOutcome outcome = workload.execute_map(split);
    std::vector<mr::MapOutcome> partitioned = workload.partition_map_output(outcome, reducers);
    for (int r = 0; r < reducers; ++r) {
      shards[static_cast<std::size_t>(r)].push_back(
          std::move(partitioned[static_cast<std::size_t>(r)]));
    }
  }

  mr::JobResult result;
  result.succeeded = true;
  result.reduce_results.reserve(static_cast<std::size_t>(reducers));
  for (int r = 0; r < reducers; ++r) {
    const mr::ReduceOutcome outcome =
        workload.execute_reduce(shards[static_cast<std::size_t>(r)]);
    result.reduce_results.push_back(outcome.result);
  }
  result.reduce_result = result.reduce_results.front();
  return workload.result_digest(result);
}

}  // namespace mrapid::check
