#include "mapreduce/job_client.h"

#include <cassert>

#include "common/log.h"
#include "mapreduce/app_master.h"
#include "mapreduce/uber_am.h"

namespace mrapid::mr {

JobClient::JobClient(cluster::Cluster& cluster, hdfs::Hdfs& hdfs, yarn::ResourceManager& rm,
                     MRConfig config)
    : cluster_(cluster), hdfs_(hdfs), rm_(rm), sim_(cluster.simulation()), config_(config) {}

JobSpec with_mode_defaults(JobSpec spec, ExecutionMode mode) {
  if (spec.uber_options_locked) return spec;
  switch (mode) {
    case ExecutionMode::kHadoopDistributed:
    case ExecutionMode::kDPlus:
    case ExecutionMode::kSparkLite:
      break;
    case ExecutionMode::kHadoopUber:
      spec.uber.parallel = false;
      spec.uber.cache_in_memory = false;
      break;
    case ExecutionMode::kUPlus:
      spec.uber.parallel = true;
      spec.uber.cache_in_memory = true;
      break;
  }
  return spec;
}

AmRef JobClient::make_app_master(const JobSpec& spec, ExecutionMode mode,
                                AmBase::CompletionCallback on_complete) {
  assert(mode != ExecutionMode::kSparkLite && "SparkLite jobs go through spark::SparkApp");
  const JobSpec adjusted = with_mode_defaults(spec, mode);
  std::unique_ptr<AmBase> am;
  if (mode == ExecutionMode::kHadoopUber || mode == ExecutionMode::kUPlus) {
    am = std::make_unique<UberAppMaster>(cluster_, hdfs_, rm_, config_, adjusted, mode,
                                         std::move(on_complete));
  } else {
    am = std::make_unique<MRAppMaster>(cluster_, hdfs_, rm_, config_, adjusted, mode,
                                       std::move(on_complete));
  }
  return slots_.insert(std::move(am));
}

void JobClient::upload_job_files(const std::string& staging_dir, cluster::NodeId writer,
                                 std::function<void()> staged) {
  auto pending = std::make_shared<int>(2);
  auto shared = std::make_shared<std::function<void()>>(std::move(staged));
  auto one_done = [pending, shared] {
    if (--*pending == 0) (*shared)();
  };
  hdfs_.write_file(staging_dir + "/job.jar", config_.job_jar_size, writer, one_done);
  hdfs_.write_file(staging_dir + "/job.xml", config_.job_conf_size, writer, one_done);
}

// One submission may run several AM attempts (the RM re-executes the
// AM when its container dies with a node); it tracks the current
// attempt so RM callbacks always reach the live AM. Shared by the RM
// handlers, the submission events and each attempt's completion
// callback; it refers to attempts only through AmRefs, so it closes
// no ownership cycle.
struct JobClient::Submission {
  JobSpec spec;  // output path already made unique
  ExecutionMode mode = ExecutionMode::kHadoopDistributed;
  sim::SimTime submit_time;
  AmBase::CompletionCallback on_complete;
  AmRef am;
  int restarts = 0;                 // AM re-executions so far
  std::size_t lost_containers = 0;  // accumulated over abandoned attempts
  bool started = false;
  bool reported = false;

  bool am_killed() const {
    const AmBase* current = am.get();
    return current == nullptr || current->was_killed();
  }
};

void JobClient::report(const std::shared_ptr<Submission>& sub, const JobResult& result) {
  if (sub->reported) return;  // only the final attempt reports
  sub->reported = true;
  JobResult adjusted_result = result;
  adjusted_result.profile.am_restarts = sub->restarts;
  adjusted_result.profile.lost_containers += sub->lost_containers;
  // The client observes completion at its next 1 s status poll, not
  // the instant the AM unregisters.
  const sim::SimTime seen = client_poll_time(sub->submit_time, sim_.now(), config_.client_poll);
  sim_.schedule_at(seen, [this, seen, sub, adjusted_result]() mutable {
    adjusted_result.profile.client_done_time = seen;
    sub->on_complete(adjusted_result);
    // The client has been told: the attempt's state can go.
    slots_.release(sub->am);
  }, "client:poll-complete");
}

void JobClient::on_am_ready(const std::shared_ptr<Submission>& sub,
                            const yarn::Container& container) {
  if (!sub->started) {
    sub->started = true;
    if (!sub->am_killed()) sub->am->start(container);
    return;
  }
  // AM re-execution: the previous attempt died with its container.
  // Task state died with it, so a fresh AM reruns the whole job under
  // the same application (new attempt output paths avoid HDFS
  // collisions with the old one).
  ++sub->restarts;
  const AmRef previous = sub->am;
  sub->lost_containers += previous->live_profile().lost_containers;
  JobSpec retry = sub->spec;
  retry.output_path += "_am" + std::to_string(sub->restarts);
  const AmRef fresh =
      make_app_master(retry, sub->mode, [this, sub](const JobResult& r) { report(sub, r); });
  fresh->set_submit_time(sub->submit_time);
  fresh->set_app_id(previous->app_id());
  sub->am = fresh;
  slots_.release(previous);  // abandoned when its container was lost
  fresh->start(container);
}

AmRef JobClient::submit(const JobSpec& spec, ExecutionMode mode,
                        AmBase::CompletionCallback on_complete) {
  assert(spec.logic != nullptr);
  const int seq = next_job_seq_++;
  auto sub = std::make_shared<Submission>();
  sub->spec = spec;
  // Unique output/staging paths so concurrent attempts (speculative
  // execution) never collide in HDFS.
  sub->spec.output_path += "." + std::string(mode_name(mode)) + "." + std::to_string(seq);
  sub->mode = mode;
  sub->submit_time = sim_.now();
  sub->on_complete = std::move(on_complete);
  const std::string staging_dir = "/tmp/staging/" + spec.name + "." + std::to_string(seq);

  const AmRef am =
      make_app_master(sub->spec, mode, [this, sub](const JobResult& r) { report(sub, r); });
  am->set_submit_time(sub->submit_time);
  sub->am = am;

  // Step 1: job-id RPC; step 2: upload jar + conf; step 3: submit.
  const cluster::NodeId client_node = cluster_.master();
  sim_.schedule_after(rm_.config().rpc_latency, [this, sub, staging_dir, client_node] {
    if (sub->am_killed()) return;  // killed during the submission RPC
    upload_job_files(staging_dir, client_node, [this, sub] {
      if (sub->am_killed()) return;
      const yarn::AppId app = rm_.submit_application(
          sub->spec.name,
          [this, sub](const yarn::Container& container) { on_am_ready(sub, container); });
      sub->am->set_app_id(app);
      rm_.set_am_lost_handler(app, [sub] {
        if (AmBase* current = sub->am.get()) current->abandon();
      });
      rm_.set_am_failure_handler(app, [this, sub] {
        // AM attempt budget exhausted: the RM already unregistered the
        // app; report a clean failure to the client.
        JobResult result;
        result.succeeded = false;
        result.profile = sub->am->live_profile();
        report(sub, result);
      });
      // A kill that raced the submission would have missed the app id;
      // reconcile so the AM container is reclaimed.
      if (sub->am_killed()) rm_.finish_application(app);
    });
  }, "client:submit");
  return am;
}

}  // namespace mrapid::mr
