#pragma once

// The standard Hadoop job submission path (paper Figure 1, steps 1-6):
//   1. client asks the RM for a job id (RPC),
//   2. client uploads the job jar / configuration / split metadata to HDFS,
//   3. client submits the application to the RM,
//   4. the RM scheduler allocates the AM container,
//   5. an NM launches the AM (t^l) and the AM initialises (am_init),
//   6. the AM requests task containers and drives the job.
//
// The MRapid submission framework (src/mrapid/proxy.h) replaces steps
// 3-5 with an RPC to an AM reserved in the pool; everything else is
// shared.

#include <functional>
#include <memory>

#include "mapreduce/am_base.h"

namespace mrapid::mr {

class JobClient {
 public:
  JobClient(cluster::Cluster& cluster, hdfs::Hdfs& hdfs, yarn::ResourceManager& rm,
            MRConfig config);

  // Submits `spec` in the given mode. Returns the AM's reference
  // (already registered; the job starts asynchronously in simulated
  // time). The attempt is released once the client has seen it finish
  // (client:poll-complete, after `on_complete` returns); the reference
  // then goes stale. A killed attempt nobody reports on stays until
  // the client is destroyed.
  AmRef submit(const JobSpec& spec, ExecutionMode mode, AmBase::CompletionCallback on_complete);

  const MRConfig& config() const { return config_; }

  // Builds the right AM flavour for `mode` into a slot (also used by
  // the MRapid submission framework, which launches AMs through its
  // pool). The caller releases the slot once the attempt is terminal
  // and its owner has been told.
  AmRef make_app_master(const JobSpec& spec, ExecutionMode mode,
                        AmBase::CompletionCallback on_complete);
  void release(AmRef am) { slots_.release(am); }
  const AmSlots& slots() const { return slots_; }

  // Stages jar + conf into HDFS and calls `staged` when durable (step 2).
  void upload_job_files(const std::string& staging_dir, cluster::NodeId writer,
                        std::function<void()> staged);

 private:
  struct Submission;
  void on_am_ready(const std::shared_ptr<Submission>& sub, const yarn::Container& container);
  void report(const std::shared_ptr<Submission>& sub, const JobResult& result);

  cluster::Cluster& cluster_;
  hdfs::Hdfs& hdfs_;
  yarn::ResourceManager& rm_;
  sim::Simulation& sim_;
  MRConfig config_;
  AmSlots slots_;
  int next_job_seq_ = 1;
};

// Applies the per-mode Uber defaults the paper describes: baseline
// Uber is sequential + spilling, U+ is parallel + in-memory cache.
JobSpec with_mode_defaults(JobSpec spec, ExecutionMode mode);

}  // namespace mrapid::mr
