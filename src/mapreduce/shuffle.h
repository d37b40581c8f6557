#pragma once

// Per-job map-output registry: the one way a map outcome becomes
// shards (docs/PERF.md, "Shuffle & job scale").
//
// JobLogic::partition_map_output builds all R shards of one map
// outcome in one call. The registry makes that call exactly once per
// map, when the job driver (an MR AM, or SparkLite's driver) announces
// the finished map, and every reduce task reads its shard from the
// resulting table: M partition calls of O(R) work per job, O(1) per
// fetch. Reading a map nobody announced is a bug (asserted).
//
// partition_map_output is a pure function of the outcome, so each
// shard equals the one a fresh per-fetch partition call would return;
// tests/shuffle_test.cc holds the registry to that under fuzzed
// outcomes.

#include <cassert>
#include <cstdint>
#include <vector>

#include "mapreduce/job.h"

namespace mrapid::mr {

// Lifetime counters for the job-scale bench and the allocation-
// behaviour tracking in BENCH_simcore.json (counting never affects
// traces).
struct ShuffleStats {
  std::uint64_t fetches = 0;          // reduce-side fetches started
  std::uint64_t coalesced_flows = 0;  // extra net legs folded into an aggregate flow
  std::uint64_t partition_calls = 0;  // JobLogic::partition_map_output invocations
};

// One registry per job attempt, shared by the driver and all its
// reduce tasks. Not thread-safe (the simulation is single-threaded).
class MapOutputRegistry {
 public:
  // `spec` must outlive the registry; `stats` may be null.
  MapOutputRegistry(const JobSpec& spec, int total_maps, ShuffleStats* stats);

  // A map finished (or re-ran after a fetch failure): partition its
  // outcome once. Re-announcing overwrites the previous shards.
  void announce(int map_index, const MapOutcome& outcome);

  // The map's output was lost with its node; drop its shards until the
  // re-run announces fresh ones.
  void invalidate(int map_index);

  bool announced(int map_index) const {
    return present_[static_cast<std::size_t>(map_index)] != 0;
  }

  int total_maps() const { return static_cast<int>(present_.size()); }

  // Shard for (map, partition) of an announced map.
  const MapOutcome& shard(int map_index, int partition) const {
    assert(announced(map_index) && "shard of a map nobody announced");
    return shards_[static_cast<std::size_t>(map_index)].at(static_cast<std::size_t>(partition));
  }

 private:
  const JobSpec& spec_;
  int reducers_;
  std::vector<char> present_;                    // by map index
  std::vector<std::vector<MapOutcome>> shards_;  // [map][partition]
  ShuffleStats* stats_;
};

}  // namespace mrapid::mr
