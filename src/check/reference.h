#pragma once

// The differential oracle's ground truth: a single-threaded,
// in-process executor that computes a job's answer with *none* of the
// machinery under test — no YARN, no AMs, no schedulers, no fault
// injection. It stages the workload into a fresh HDFS (the scenario's
// block size governs the split count, exactly as in a real run), maps
// every split in index order, partitions, and reduces each partition
// over its shards in map-index order — the same ordering
// ReduceRunner::run_reduce_phase feeds execute_reduce. It computes
// every map and partition boundary itself (wl::DatasetCache's
// DerivedBypass), so a corrupt memoized output shows up as a
// mismatch instead of being shared by both sides. Every execution
// mode, under every fault schedule, must reproduce this digest:
// faults may change *when* work happens, never *what* comes out.

#include <cstdint>

#include "check/scenario.h"

namespace mrapid::check {

// Digest of the scenario's correct answer (wl::Workload::result_digest
// over the reference JobResult). `workload` must be the instance built
// by make_workload(scenario).
std::uint64_t reference_digest(const FuzzScenario& scenario, wl::Workload& workload);

}  // namespace mrapid::check
