#pragma once

// The experiment harness: wires a complete simulated world — cluster,
// HDFS, YARN RM (with the mode-appropriate scheduler), job client and
// the MRapid framework — and runs one workload to completion.
//
// Every run gets a *fresh* world so runs never contaminate each other;
// the workload object is reused across runs so its generated payloads
// are built once.
//
// Lifetime: a finished job's state is freed while the world runs (the
// JobClient's AM slot map, see mr::AmSlots), and destroying a World
// frees everything it built. Members go in reverse order: SparkLite
// apps, the fault injector, the framework, the client with every AM
// it still holds, the RM with its app records, HDFS, the cluster, and
// last the simulation with the pending events and their captures.
// Nothing runs during teardown, so no callback sees a freed object.

#include <functional>
#include <memory>
#include <optional>

#include "cluster/azure.h"
#include "cluster/cluster.h"
#include "common/log.h"
#include "harness/fault.h"
#include "hdfs/hdfs.h"
#include "mapreduce/job_client.h"
#include "mapreduce/shuffle.h"
#include "mrapid/dplus_scheduler.h"
#include "mrapid/framework.h"
#include "mrapid/scheduler_registry.h"
#include "spark/spark.h"
#include "workloads/workload.h"
#include "yarn/capacity_scheduler.h"
#include "yarn/resource_manager.h"

namespace mrapid::harness {

// How a run is driven end to end.
enum class RunMode {
  kHadoop,      // baseline distributed: CapacityScheduler, standard submission
  kUber,        // baseline Uber mode, standard submission
  kDPlus,       // MRapid D+ : D+ scheduler + framework submission
  kUPlus,       // MRapid U+ : framework submission, parallel in-memory uber
  kMRapidAuto,  // MRapid with history pre-decision / speculative execution
  kSpark,       // SparkLite-on-YARN comparison engine
};

const char* run_mode_name(RunMode mode);
bool is_mrapid_mode(RunMode mode);
mr::ExecutionMode to_execution_mode(RunMode mode);  // not valid for kMRapidAuto

struct WorldConfig {
  cluster::ClusterConfig cluster = cluster::a3_paper_cluster();
  hdfs::HdfsConfig hdfs;
  yarn::YarnConfig yarn;
  mr::MRConfig mr;
  core::DPlusOptions dplus;
  // Scheduling policy by registry name (core::SchedulerRegistry:
  // hadoop-capacity, mrapid-d+, fcfs, easy-backfill,
  // conservative-backfill). Empty keeps the mode default: D+ for
  // MRapid modes, hadoop-capacity for the baselines.
  std::string scheduler;
  core::FrameworkOptions framework;
  spark::SparkConfig spark;
  // Fault injection; an active plan also switches on the RM's node
  // liveness tracking (heartbeat expiry, requeue, blacklisting).
  FaultPlan faults;
  std::uint64_t seed = 0x5EED;
  // Upper bound on one run's simulated time (guards against wedged
  // runs in tests/benches).
  sim::SimDuration deadline = sim::SimDuration::seconds(3600);
  // Per-run log severity threshold. When set, this world's thread logs
  // at the given level for the world's lifetime (parallel sweep trials
  // each pick their own level); nullopt uses the global Logger level.
  std::optional<LogLevel> log_level;
};

// A fully wired world. Exposed (rather than hidden inside a function)
// so tests can poke at the pieces mid-run.
class World {
 public:
  World(const WorldConfig& config, RunMode mode);
  ~World();

  sim::Simulation& simulation() { return *sim_; }
  cluster::Cluster& cluster() { return *cluster_; }
  hdfs::Hdfs& hdfs() { return *hdfs_; }
  yarn::ResourceManager& rm() { return *rm_; }
  mr::JobClient& client() { return *client_; }
  core::MRapidFramework& framework() { return *framework_; }
  // Null unless the config's FaultPlan is active.
  FaultInjector* faults() { return injector_.get(); }
  RunMode mode() const { return mode_; }
  const WorldConfig& config() const { return config_; }
  // Shuffle counters for every job this world ran (the fetch engine's
  // fetches / coalesced flows / partition calls). Points at this
  // world's own sink unless the caller provided one in config.mr.
  const mr::ShuffleStats& shuffle_stats() const { return shuffle_stats_; }

  // Attaches a trace sink to this world's simulation. Attach before
  // boot() so node capacities and pool warm-up land in the trace; the
  // tracer must outlive the world's run.
  void attach_tracer(sim::Tracer& tracer) { sim_->set_tracer(&tracer); }

  // Brings up NMs (and, for MRapid modes, warms the AM pool), leaving
  // the simulation at the instant the system is ready for jobs.
  void boot();
  bool booted() const { return booted_; }

  // Stages the workload, submits it in this world's mode, runs the
  // simulation until the client observes completion. Returns nullopt
  // if the run hit the deadline.
  std::optional<mr::JobResult> run(wl::Workload& workload);

  // As `run`, but lets the caller tweak the staged spec (reducer
  // count, uber options, ...) before submission.
  std::optional<mr::JobResult> run(wl::Workload& workload,
                                   const std::function<void(mr::JobSpec&)>& adjust_spec);

 private:
  WorldConfig config_;
  mr::ShuffleStats shuffle_stats_;  // config_.mr.shuffle_stats default sink
  RunMode mode_;
  std::optional<std::optional<LogLevel>> saved_log_threshold_;  // set when config.log_level is
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<hdfs::Hdfs> hdfs_;
  std::unique_ptr<yarn::ResourceManager> rm_;
  std::unique_ptr<mr::JobClient> client_;
  std::unique_ptr<core::MRapidFramework> framework_;
  std::unique_ptr<FaultInjector> injector_;
  // SparkLite apps still running (a run that hit its deadline); a
  // finished app is dropped as soon as its run returns.
  std::vector<std::shared_ptr<spark::SparkApp>> spark_apps_;
  bool booted_ = false;
};

// One-shot convenience used by most benches: fresh world, boot, run.
std::optional<mr::JobResult> run_workload(const WorldConfig& config, RunMode mode,
                                          wl::Workload& workload);

}  // namespace mrapid::harness
