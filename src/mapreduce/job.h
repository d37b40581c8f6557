#pragma once

// Job model: specs, logic interface, runtime config, and the
// phase-resolved profile every run produces.
//
// JobLogic is where *real computation* happens: workloads implement
// execute_map / execute_reduce over actual staged data (tokenising
// text, sorting rows, sampling points), so results are verifiable; the
// returned byte/record/core-second figures drive the simulator's
// timing. The `data`/`result` fields carry the workload-specific
// objects type-erased, because during speculative execution the same
// logic instance serves two concurrent runs and must stay stateless.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/units.h"
#include "sim/time.h"

namespace mrapid::mr {

// One map task's input: a contiguous byte range of one file, aligned
// to an HDFS block (Hadoop FileInputFormat with split size == block
// size), plus the replica-holding hosts used for locality scheduling.
struct InputSplit {
  std::string path;
  std::size_t index_in_job = 0;  // dense 0..n_m-1
  Bytes offset = 0;
  Bytes length = 0;
  std::vector<cluster::NodeId> hosts;
  std::int64_t block_id = 0;
};

struct MapOutcome {
  Bytes output_bytes = 0;  // intermediate (post-combiner) data, s^o
  std::int64_t output_records = 0;
  double core_seconds = 0.0;  // CPU work of the map function
  std::shared_ptr<const void> data;  // workload-specific intermediate
};

struct ReduceOutcome {
  Bytes output_bytes = 0;  // final output written to HDFS
  double core_seconds = 0.0;
  std::shared_ptr<const void> result;  // workload-specific final result
};

class JobLogic {
 public:
  virtual ~JobLogic() = default;
  virtual std::string name() const = 0;
  // History key for the decision maker: identifies the *program*, not
  // the input (the paper reuses records "even if they were executed
  // with different input data").
  virtual std::string signature() const { return name(); }

  virtual MapOutcome execute_map(const InputSplit& split) const = 0;
  virtual ReduceOutcome execute_reduce(std::span<const MapOutcome> maps) const = 0;

  // Splits a map outcome into `reducers` per-reducer shards (the
  // Partitioner). The default sends everything to reducer 0, which is
  // exact for the paper's single-reducer short jobs; workloads
  // override with hash (WordCount) or range (TeraSort) partitioning.
  virtual std::vector<MapOutcome> partition_map_output(const MapOutcome& outcome,
                                                       int reducers) const;

  // How badly this workload's compute degrades when co-scheduled with
  // n-1 neighbours on one node (slowdown factor 1 + alpha*(n-1)).
  // Memory-bandwidth-heavy workloads (string processing) use larger
  // values; cache-resident numeric kernels scale near-perfectly.
  virtual double compute_contention() const { return 0.10; }
};

// How a job is executed.
enum class ExecutionMode {
  kHadoopDistributed,  // baseline: CapacityScheduler + per-task containers
  kHadoopUber,         // baseline Uber: sequential, spills to disk
  kDPlus,              // MRapid improved distributed mode
  kUPlus,              // MRapid improved Uber mode
  kSparkLite,          // the Spark-on-YARN-style comparison engine
};

const char* mode_name(ExecutionMode mode);

struct UberOptions {
  // Maps run concurrently inside the AM container: n_u^m = n^c * n_c^m.
  int maps_per_core = 1;   // n_c^m
  bool parallel = false;   // false = original Uber (strictly sequential)
  bool cache_in_memory = false;  // U+: keep intermediate data off disk
  // The slice of the AM heap U+ may fill with intermediate data before
  // degrading to spills (the paper observes U+ spilling at 160 MB of
  // WordCount input, i.e. a few tens of MB of combined map output).
  Bytes memory_cache_budget = 32_MB;
  // In-JVM per-task setup (record reader, committer, counters) is
  // serialized on the AM's dispatch path even when map bodies run on a
  // thread pool — this is what makes many-task jobs scale poorly in a
  // single container.
  sim::SimDuration task_dispatch_overhead = sim::SimDuration::millis(150);
};

struct JobSpec {
  std::string name;
  std::vector<std::string> input_paths;
  std::string output_path;
  const JobLogic* logic = nullptr;
  int num_reducers = 1;  // the paper's short jobs always use 1
  UberOptions uber;
  // Normally the execution mode overrides `uber` with its canonical
  // settings (Uber = sequential+spill, U+ = parallel+cached). Ablation
  // benches lock their hand-set options in instead.
  bool uber_options_locked = false;
};

// Failure injection: each map task *attempt* fails independently with
// the given probability, at a uniformly random point of its compute
// phase (the work done so far is wasted, as on a real task crash). The
// AM retries failed attempts — on a fresh container in distributed
// mode, in place in Uber mode — up to max_attempts, then fails the job
// (mapreduce.map.maxattempts semantics).
struct FaultConfig {
  double map_failure_prob = 0.0;
  int max_attempts = 4;

  bool enabled() const { return map_failure_prob > 0.0; }
};

// Test-only deliberate result corruption, used by the scenario
// fuzzer's shrinker self-test (mrapid_fuzz --inject-bug, src/check/):
// a seeded bug the differential oracle must catch and the shrinker
// must minimise. Always kNone outside those tests.
enum class InjectedBug {
  kNone,
  // The reduce phase silently drops map 0's shard (jobs with >= 2
  // maps): models a lost-intermediate-data scheduler bug.
  kDropShard,
  // The reduce phase consumes map 0's shard twice: models a
  // double-counted re-execution after recovery.
  kDupShard,
};

const char* injected_bug_name(InjectedBug bug);

struct ShuffleStats;  // mapreduce/shuffle.h

// Hadoop MapReduce runtime constants (2.2-era defaults).
struct MRConfig {
  Bytes sort_buffer = 100_MB;  // mapreduce.task.io.sort.mb
  double spill_percent = 0.8;  // mapreduce.map.sort.spill.percent
  Bytes job_jar_size = 280_KB;   // the Hadoop examples jar
  Bytes job_conf_size = 96_KB;   // job.xml + splits metainfo
  sim::SimDuration umbilical_latency = sim::SimDuration::millis(1.0);
  sim::SimDuration commit_overhead = sim::SimDuration::millis(300);  // OutputCommitter
  double reduce_slowstart = 0.05;  // fraction of maps done before reducer is requested
  // mapreduce.client.progressmonitor.pollinterval: the baseline client
  // only learns the job finished at its next status poll. (The MRapid
  // proxy pushes completion instead — one of the paper's
  // "reducing communication" wins.)
  sim::SimDuration client_poll = sim::SimDuration::seconds(1.0);

  FaultConfig faults;
  InjectedBug injected_bug = InjectedBug::kNone;

  // Optional shuffle counter sink (fetches / coalesced flows /
  // partition calls; mapreduce/shuffle.h). harness::World points this
  // at a per-world instance when left null.
  ShuffleStats* shuffle_stats = nullptr;
};

// ---- Profiles ------------------------------------------------------

struct TaskProfile {
  int index = -1;
  int attempt = 0;  // 0-based; > 0 means earlier attempts failed
  cluster::NodeId node = cluster::kInvalidNode;
  cluster::Locality locality = cluster::Locality::kAny;
  sim::SimTime start;       // container running, task begins
  sim::SimTime read_done;   // input fetched
  sim::SimTime compute_done;
  sim::SimTime end;         // spill/merge (map) or output commit (reduce) done
  Bytes input_bytes = 0;
  Bytes output_bytes = 0;
  bool output_in_memory = false;
  int spills = 0;

  double duration_seconds() const { return (end - start).as_seconds(); }
};

struct JobProfile {
  std::string job_name;
  ExecutionMode mode = ExecutionMode::kHadoopDistributed;
  sim::SimTime submit_time;
  sim::SimTime am_ready_time;   // AM container launched + initialised
  sim::SimTime first_map_start;
  sim::SimTime maps_done;
  sim::SimTime shuffle_done;
  sim::SimTime finish_time;
  // When the *client* learned of completion: the baseline client polls
  // job status on a 1 s interval, the MRapid proxy pushes a completion
  // RPC. Zero when not applicable.
  sim::SimTime client_done_time;

  std::vector<TaskProfile> maps;
  // One entry per reducer; `reduce` mirrors the last-finishing reducer
  // (the single entry for the paper's 1-reducer jobs).
  std::vector<TaskProfile> reduces;
  TaskProfile reduce;

  Bytes total_input = 0;
  Bytes total_map_output = 0;
  Bytes shuffled_bytes = 0;
  Bytes output_bytes = 0;

  std::size_t node_local_maps = 0;
  std::size_t rack_local_maps = 0;
  std::size_t off_rack_maps = 0;
  std::size_t failed_attempts = 0;

  // Fault recovery: containers lost with their node (crash/expiry/AM
  // kill) and AM re-executions this job survived.
  std::size_t lost_containers = 0;
  int am_restarts = 0;

  // Containers launched per node — the imbalance signature of the
  // baseline scheduler.
  std::vector<std::pair<cluster::NodeId, int>> containers_per_node;

  // End-to-end as observed by the submitter (client poll / proxy push
  // included when recorded).
  double elapsed_seconds() const {
    const sim::SimTime end = client_done_time.as_micros() != 0 ? client_done_time : finish_time;
    return (end - submit_time).as_seconds();
  }
  double am_setup_seconds() const { return (am_ready_time - submit_time).as_seconds(); }
  double map_phase_seconds() const { return (maps_done - first_map_start).as_seconds(); }
  int max_containers_on_one_node() const;

  // Adds `delta` (+1 for a counted map, -1 for a retracted one) to the
  // locality bucket of a map that ran at `locality`.
  void count_map_locality(cluster::Locality locality, int delta);
};

// When a client that polls job status every `poll` from `submit` first
// sees a job that finished at `done`: the first poll tick at or after
// `done` (`submit` itself when the job took no time).
sim::SimTime client_poll_time(sim::SimTime submit, sim::SimTime done, sim::SimDuration poll);

struct JobResult {
  bool succeeded = false;
  bool killed = false;
  JobProfile profile;
  std::shared_ptr<const void> reduce_result;  // reducer 0 (1-reducer jobs)
  // One entry per reducer, in partition order.
  std::vector<std::shared_ptr<const void>> reduce_results;
};

}  // namespace mrapid::mr
