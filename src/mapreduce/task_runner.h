#pragma once

// Phase-level task execution, shared by every AM flavour (distributed,
// Uber, D+, U+). A map task walks Eq. 1's sub-phases — setup (charged
// by container launch), read, map, spill, merge — and a reduce task
// walks shuffle, merge, reduce, output write.
//
// Cancellation is cooperative: each phase boundary checks the shared
// `killed` flag (set when the speculative framework terminates the
// slower mode) and simply stops; in-flight fluid transfers drain
// without side effects.

#include <functional>
#include <memory>
#include <span>

#include "cluster/cluster.h"
#include "hdfs/hdfs.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle.h"
#include "sim/simulation.h"

namespace mrapid::mr {

struct TaskEnv {
  sim::Simulation& sim;
  cluster::Cluster& cluster;
  hdfs::Hdfs& hdfs;
  const MRConfig& config;
  std::shared_ptr<const bool> killed;  // owned by the job attempt
  // Trace identity: the owning YARN app plus a per-job discriminator
  // (submit time in micros — pool slots reuse app ids across jobs, so
  // the pair is what uniquely names a job attempt in a trace).
  std::int32_t app = -1;
  std::int64_t job = 0;

  bool is_killed() const { return killed && *killed; }
};

struct MapTaskOptions {
  // Consulted once the map output size is known. Returns true to
  // spill to local disk (original Hadoop / original Uber / D+ always
  // do); U+ installs a decider that caches in memory while its budget
  // holds. Unset means "always spill".
  std::function<bool(Bytes output_bytes)> spill_decider;
};

struct MapTaskResult {
  TaskProfile profile;
  MapOutcome outcome;
  // True when this attempt crashed (fault injection): the outcome is
  // discarded and the AM must retry or fail the job.
  bool failed = false;
};

// Runs one map task's read/map/spill/merge pipeline on `node`; `done`
// fires when the task's output is available — or, under fault
// injection, when the attempt crashes mid-compute (result.failed).
// Never fires if the job was killed mid-task.
void run_map_task(const TaskEnv& env, const JobSpec& spec, const InputSplit& split,
                  cluster::NodeId node, MapTaskOptions options,
                  std::function<void(MapTaskResult)> done, int attempt = 0);

// One reducer (partition) of a job. Feed map results as they finish;
// the runner fetches each output's shard for its partition (disk read
// at the source when the output is on disk, plus the network flow),
// overlapping shuffle with the remaining map waves exactly as Hadoop
// does, then merges, reduces, and writes its part file to HDFS.
class ReduceRunner {
 public:
  using DoneCallback = std::function<void(TaskProfile, ReduceOutcome)>;
  // A map output could not be fetched (its node is down); the AM must
  // re-run that map and re-announce the fresh output.
  using FetchFailedCallback = std::function<void(int map_index)>;

  // `attempt` > 0 marks a re-execution after the previous reducer
  // attempt was lost with its container; trace events then carry an
  // `attempt` argument (omitted at 0 to keep faultless traces stable).
  ReduceRunner(const TaskEnv& env, const JobSpec& spec, int partition, std::string output_path,
               cluster::NodeId node, int total_maps, DoneCallback done, int attempt = 0);

  // The reducer's container is up; shuffling may begin.
  void start();

  // A map task finished; its output can be fetched. Safe to call both
  // before and after start(). Re-announcements of an already-fetched
  // map (after a re-run) are ignored.
  void on_map_output(const MapTaskResult& result);

  // Batch form: fetch every result in one dispatch. This is how the
  // AMs replay their accumulated map results into a freshly started
  // runner; consecutive same-source network legs of the batch coalesce
  // into one aggregated flow.
  void on_map_outputs(std::span<const MapTaskResult> results);

  // Share the AM's partition-once shard registry. When unset, the
  // runner lazily builds its own private one (direct drives without
  // an AM).
  void set_registry(MapOutputRegistry* registry) { registry_ = registry; }

  void set_fetch_failed(FetchFailedCallback cb) { fetch_failed_ = std::move(cb); }

  // Retire this attempt: no further progress, no further callbacks.
  // The object must stay alive until teardown (in-flight fluid
  // transfers still reference it).
  void cancel() { cancelled_ = true; }

  Bytes shuffled_bytes() const { return shuffled_bytes_; }

 private:
  enum class FetchState : std::uint8_t { kNone, kInflight, kDone };

  // All progress stops when the attempt was retired, the job killed,
  // or this reducer's own node went down (its container died with it).
  bool halted() const {
    return cancelled_ || env_.is_killed() || env_.cluster.node(node_).is_down();
  }
  void fetch(const MapTaskResult& result);
  void flush_net_legs();
  void fetch_leg_done(std::uint32_t slot, std::uint32_t generation);
  void finish_fetch(int index, Bytes bytes);
  void maybe_finish_shuffle();
  void run_reduce_phase();

  // One in-flight remote fetch: the disk and network legs join here
  // instead of on a heap-allocated shared counter. Slots are recycled
  // through a free list; the generation stamp retires any callback
  // from a previous tenant of the slot.
  struct FetchRecord {
    int pending = 0;
    int map_index = 0;
    Bytes bytes = 0;
    std::uint32_t generation = 0;
  };
  std::uint32_t alloc_fetch_record();

  TaskEnv env_;
  const JobSpec& spec_;
  int partition_;
  std::string output_path_;
  cluster::NodeId node_;
  int total_maps_;
  DoneCallback done_;
  int attempt_ = 0;
  bool started_ = false;
  bool cancelled_ = false;
  int fetched_ = 0;
  Bytes shuffled_bytes_ = 0;
  std::vector<MapTaskResult> pending_;   // finished before start()
  std::vector<MapOutcome> outcomes_;     // by map index
  std::vector<FetchState> fetch_state_;  // by map index
  FetchFailedCallback fetch_failed_;
  TaskProfile profile_;

  // ---- shuffle engine state ------------------------------------------
  MapOutputRegistry* registry_ = nullptr;
  std::unique_ptr<MapOutputRegistry> own_registry_;  // direct drives without an AM
  std::vector<FetchRecord> fetch_records_;
  std::vector<std::uint32_t> free_fetch_records_;
  // Net-leg batcher: consecutive same-source legs of one dispatch,
  // flushed into a single aggregated flow on source change and at the
  // end of the dispatch. Announced ids keep trace order exact.
  std::vector<cluster::Network::LegStart> pending_legs_;
  cluster::NodeId pending_src_ = cluster::kInvalidNode;
};

// Number of spill files a map output of `bytes` produces under the
// given sort-buffer config (>= 1 once there is any output).
int spill_count(Bytes output_bytes, const MRConfig& config);

}  // namespace mrapid::mr
