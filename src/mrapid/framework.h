#pragma once

// The MRapid job-submission framework (paper §III-C, Figure 6): the
// proxy with its AM pool, the client module, the decision maker, and
// speculative dual-mode execution.
//
// Workflow for a submitted short job:
//   1. the client uploads jar/conf to HDFS and RPCs the proxy;
//   2. pre-decision: the decision maker consults execution history;
//   3. a clear answer -> one warm AM from the pool runs the job in the
//      preferred mode; otherwise the job starts in BOTH D+ and U+;
//   4. the profiler samples both attempts;
//   5. once the estimates (Eq. 2/3) diverge confidently, the decision
//      maker picks a winner;
//   6. the proxy kills the slower attempt and releases its resources.
//
// Lifetime: the framework builds every attempt through the JobClient's
// AM slot map and names it only by mr::AmRef. A job's attempts (both
// of a speculative pair, the killed loser included) are released in
// the completion event that tells the client; an attempt abandoned on
// a slot loss is released when the job is resubmitted.

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "mapreduce/job_client.h"
#include "mrapid/ampool.h"
#include "mrapid/decision_maker.h"
#include "mrapid/history.h"

namespace mrapid::core {

struct FrameworkOptions {
  int pool_size = 3;  // paper default
  sim::SimDuration proxy_rpc = sim::SimDuration::millis(1.0);
  // Even a warm AM must download the job's splits/conf from HDFS and
  // build the job model before running tasks; only the container
  // allocation + JVM launch are saved.
  sim::SimDuration am_job_init = sim::SimDuration::millis(400);
  sim::SimDuration decision_poll = sim::SimDuration::millis(500);
  double confidence_margin = 0.15;

  // Ablation knobs (Figs. 14/15):
  bool use_pool = true;          // "submission framework" contribution
  bool push_completion = true;   // "reducing communication" contribution

  // Pool-managed jobs have no per-app AM re-execution (the reserved
  // app belongs to the pool); a job whose slot dies is resubmitted
  // through the queue instead, at most this many times.
  int max_job_resubmits = 2;

  EstimatorDefaults estimator;
};

// Derives the estimator's cluster constants from the actual world.
EstimatorDefaults estimator_defaults_for(const cluster::Cluster& cluster,
                                         const yarn::YarnConfig& yarn_config);

class MRapidFramework {
 public:
  using CompletionCallback = std::function<void(const mr::JobResult&)>;

  MRapidFramework(cluster::Cluster& cluster, hdfs::Hdfs& hdfs, yarn::ResourceManager& rm,
                  mr::JobClient& client, FrameworkOptions options);

  // Warm the AM pool; `on_ready` fires when all slots hold live AMs.
  void start(std::function<void()> on_ready);

  // Submit letting history / speculation choose the mode.
  void submit(const mr::JobSpec& spec, CompletionCallback on_complete);

  // Submit pinned to one mode (benches isolating D+ or U+).
  void submit_in_mode(const mr::JobSpec& spec, mr::ExecutionMode mode,
                      CompletionCallback on_complete);

  HistoryStore& history() { return history_; }
  const AmPool& pool() const { return pool_; }
  const FrameworkOptions& options() const { return options_; }

  // Estimator geometry for a staged job: n_m from the input files,
  // n_c from cluster capacity, n_u_m from a pool node's cores.
  DecisionContext make_context(const mr::JobSpec& spec) const;

  // AM containers of pool-managed jobs currently running (fault
  // injection targets these for AM kills in pooled modes).
  std::vector<yarn::Container> active_am_containers() const;

 private:
  struct SpeculativeRace;

  // One job currently running on a pool slot, retained so a slot loss
  // can abandon the attempt and resubmit the job through the queue.
  // Shared by the active-job table and the attempt's completion
  // callback; it names the attempt only by AmRef, so no cycle.
  struct ActiveJob {
    mr::JobSpec spec;  // original spec (output path re-derived per attempt)
    mr::ExecutionMode mode = mr::ExecutionMode::kDPlus;
    sim::SimTime submit_time;
    CompletionCallback on_complete;
    mr::AmRef am;
    int resubmits = 0;
    bool record_winner = true;
  };

  // Steps 1-2 of the MRapid path, shared by both submit flavours: the
  // job-id RPC, the jar/conf upload, then the proxy RPC; `at_proxy`
  // runs once the proxy holds the job, with the job's submit time.
  void submit_via_proxy(const mr::JobSpec& spec, std::function<void(sim::SimTime)> at_proxy);
  // Runs `run` now if the pool has `slots_needed` free slots and no job
  // is queued ahead, else queues it (strict FIFO, see pump_queue).
  void dispatch_or_queue(int slots_needed, std::function<void()> run);
  // One pinned-mode job on the next free pool slot.
  void run_on_free_slot(const mr::JobSpec& spec, mr::ExecutionMode mode, sim::SimTime submit_time,
                        CompletionCallback on_complete);
  void run_on_slot(const mr::JobSpec& spec, mr::ExecutionMode mode, const AmPool::Slot& slot,
                   sim::SimTime submit_time, CompletionCallback on_complete, bool record_winner,
                   int resubmits = 0);
  void on_slot_lost(int index);
  mr::JobSpec spec_copy(const mr::JobSpec& spec, mr::ExecutionMode mode);
  void run_speculative(const mr::JobSpec& spec, sim::SimTime submit_time,
                       CompletionCallback on_complete);
  void poll_race(std::shared_ptr<SpeculativeRace> race);
  void finish_race(std::shared_ptr<SpeculativeRace> race, mr::ExecutionMode winner,
                   const mr::JobResult& result);
  // Tells the client (push RPC, or its next poll in the ablation), then
  // releases the job's finished attempts from the client's slot map.
  void notify_client(sim::SimTime submit_time, CompletionCallback cb, mr::JobResult result,
                     mr::AmRef am, mr::AmRef other = {});
  void pump_queue();

  cluster::Cluster& cluster_;
  hdfs::Hdfs& hdfs_;
  yarn::ResourceManager& rm_;
  mr::JobClient& client_;
  sim::Simulation& sim_;
  FrameworkOptions options_;
  AmPool pool_;
  HistoryStore history_;
  DecisionMaker decision_maker_;
  struct WaitingJob {
    int slots_needed = 1;  // 2 for a speculative pair
    std::function<void()> run;
  };
  std::deque<WaitingJob> waiting_jobs_;  // pool exhausted
  std::unordered_map<int, std::shared_ptr<ActiveJob>> active_jobs_;  // by slot index
};

}  // namespace mrapid::core
