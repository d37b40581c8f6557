#pragma once

// Phase-level task execution, shared by every AM flavour (distributed,
// Uber, D+, U+); SparkLite's executors run the same map task. A map
// task walks Eq. 1's sub-phases — setup (charged by container launch),
// read, map, spill, merge — and a reduce task walks shuffle (shards
// read from the job's MapOutputRegistry), merge, reduce, output write.
//
// Cancellation is cooperative: each phase boundary checks the owning
// attempt's `killed` flag (set when the speculative framework
// terminates the slower mode) and simply stops; in-flight fluid
// transfers drain without side effects.
//
// Lifetime: every callback a task hands to the simulation (an event, a
// fluid transfer, an HDFS operation, a fetch leg) is counted in its
// owner's `in_flight` until it has run. The owner (an AM attempt) is
// freed only once that count is zero, so task callbacks may hold raw
// pointers into it; see AmBase::quiescent().

#include <functional>
#include <memory>
#include <span>
#include <utility>

#include "cluster/cluster.h"
#include "hdfs/hdfs.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle.h"
#include "sim/simulation.h"

namespace mrapid::mr {

// The job attempt that owns a set of tasks.
struct TaskOwner {
  bool killed = false;
  // Task callbacks handed out and not yet run.
  std::int64_t in_flight = 0;
};

struct TaskEnv {
  sim::Simulation& sim;
  cluster::Cluster& cluster;
  hdfs::Hdfs& hdfs;
  const MRConfig& config;
  // Null for drivers that are never killed and never freed mid-run
  // (SparkLite, benches driving a ReduceRunner directly).
  TaskOwner* owner = nullptr;
  // Trace identity: the owning YARN app plus a per-job discriminator
  // (submit time in micros — pool slots reuse app ids across jobs, so
  // the pair is what uniquely names a job attempt in a trace).
  std::int32_t app = -1;
  std::int64_t job = 0;

  bool is_killed() const { return owner != nullptr && owner->killed; }

  // Count one callback in flight / one that has run.
  void hold() const {
    if (owner != nullptr) ++owner->in_flight;
  }
  void drop() const {
    if (owner != nullptr) --owner->in_flight;
  }

  // Wraps `f` as a counted callback: held now, dropped once it has
  // run, so the owner cannot become quiescent while `f` executes.
  template <class F>
  auto hop(F f) const {
    hold();
    return [owner = owner, f = std::move(f)](auto&&... args) mutable {
      TaskOwner* const o = owner;
      f(std::forward<decltype(args)>(args)...);
      if (o != nullptr) --o->in_flight;
    };
  }
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
// the runner fetches each output's shard for its partition from the
// job's MapOutputRegistry (disk read at the source when the output is
// on disk, plus the network flow), overlapping shuffle with the
// remaining map waves exactly as Hadoop does, then merges, reduces,
// and writes its part file to HDFS. Every map result fed in must
// already be announced in the registry.
class ReduceRunner {
 public:
  using DoneCallback = std::function<void(TaskProfile, ReduceOutcome)>;
  // A map output could not be fetched (its node is down); the AM must
  // re-run that map and re-announce the fresh output.
  using FetchFailedCallback = std::function<void(int map_index)>;

  // `registry` (which also fixes the job's map count) must outlive the
  // runner. `attempt` > 0 marks a re-execution after the previous
  // reducer attempt was lost with its container; trace events then
  // carry an `attempt` argument (omitted at 0 to keep faultless traces
  // stable).
  ReduceRunner(const TaskEnv& env, const JobSpec& spec, const MapOutputRegistry& registry,
               int partition, std::string output_path, cluster::NodeId node, DoneCallback done,
               int attempt = 0);

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

  void set_fetch_failed(FetchFailedCallback cb) { fetch_failed_ = std::move(cb); }

  // Retire this attempt: no further progress, no further callbacks.
  // Its in-flight transfers still point at it; they are counted in the
  // owner's TaskEnv, which keeps the owner (and so this runner) alive
  // until they have drained.
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
  const MapOutputRegistry& registry_;
  int partition_;
  std::string output_path_;
  cluster::NodeId node_;
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
