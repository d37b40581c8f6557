#pragma once

// Workloads are JobLogic implementations that do *real* computation
// over staged data — the three benchmarks the paper evaluates
// (WordCount, TeraSort, PI from the Hadoop examples package). A
// workload object is simulation-independent and cheap to build: its
// generated inputs, each map split's output, each reduce over cached
// runs and each digest step over a cached partition are shared across
// all instances in the process through wl::DatasetCache, keyed by what
// they are computed from, so every mode, trial, SweepRunner worker and
// stream job that computes the same thing reads one immutable result.
// Sizes and timings that depend on an instance's own parameters are
// derived per call.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "hdfs/hdfs.h"
#include "mapreduce/job.h"
#include "workloads/dataset_cache.h"

namespace mrapid::wl {

class Workload : public mr::JobLogic {
 public:
  // Registers this workload's input files in `hdfs` (metadata only —
  // the dataset is assumed pre-existing, as in the paper) and returns
  // their paths.
  virtual std::vector<std::string> stage(hdfs::Hdfs& hdfs) = 0;

  // Canonical 64-bit digest of a run's final output (all reducer
  // partitions, in partition order). Internal ordering that a mode may
  // legitimately vary (hash-map iteration, merge order of equal keys)
  // must be canonicalised away, so that two runs computed the same
  // *answer* iff their digests match — the property the differential
  // oracle (src/check/) checks across every execution mode against the
  // in-process reference executor.
  virtual std::uint64_t result_digest(const mr::JobResult& result) const = 0;

  // Convenience: stage + build the JobSpec for this workload.
  mr::JobSpec make_spec(hdfs::Hdfs& hdfs) {
    mr::JobSpec spec;
    spec.name = name();
    spec.input_paths = stage(hdfs);
    spec.output_path = "/output/" + name();
    spec.logic = this;
    return spec;
  }

 protected:
  // The reduce of the runs `maps` carry, in order; a map without data
  // adds nothing. One run is its own output. When there are several
  // and every one is a cached entry, the output is the derived entry
  // `kind` keyed by the runs' serials in order, so equal inputs share
  // one output; otherwise `merge` computes it afresh.
  static std::shared_ptr<const void> reduce_runs(DatasetKey::Kind kind,
                                                 std::span<const mr::MapOutcome> maps,
                                                 const std::function<DatasetCache::Built()>& merge);

  // Folds one non-null partition into a result digest.
  using FoldPartition = std::function<void(Fnv64&, const void* partition)>;

  // The result digest of `result`: the partition count, then each
  // partition in order, through `fold` (a null one as a marker). With a
  // `step` kind, a partition that is a cached entry is folded as one
  // memoized step, (incoming state, partition serial) -> outgoing
  // state, which gives the same value as folding it in place.
  static std::uint64_t fold_partitions(const mr::JobResult& result,
                                       std::optional<DatasetKey::Kind> step,
                                       const FoldPartition& fold);
};

}  // namespace mrapid::wl
