#pragma once

// Workloads are JobLogic implementations that do *real* computation
// over staged data — the three benchmarks the paper evaluates
// (WordCount, TeraSort, PI from the Hadoop examples package). A
// workload object is simulation-independent and cheap to build: its
// generated inputs and each map split's output are shared across all
// instances in the process through wl::DatasetCache, keyed by what
// they are computed from, so every mode, trial and SweepRunner worker
// that maps the same split reads one immutable result. Sizes and
// timings that depend on an instance's own parameters are derived
// per call.

#include <cstdint>
#include <string>
#include <vector>

#include "hdfs/hdfs.h"
#include "mapreduce/job.h"

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
};

}  // namespace mrapid::wl
