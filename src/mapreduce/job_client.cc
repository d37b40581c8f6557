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

std::shared_ptr<AmBase> JobClient::make_app_master(const JobSpec& spec, ExecutionMode mode,
                                                   AmBase::CompletionCallback on_complete) {
  assert(mode != ExecutionMode::kSparkLite && "SparkLite jobs go through spark::SparkApp");
  const JobSpec adjusted = with_mode_defaults(spec, mode);
  std::shared_ptr<AmBase> am;
  if (mode == ExecutionMode::kHadoopUber || mode == ExecutionMode::kUPlus) {
    am = std::make_shared<UberAppMaster>(cluster_, hdfs_, rm_, config_, adjusted, mode,
                                         std::move(on_complete));
  } else {
    am = std::make_shared<MRAppMaster>(cluster_, hdfs_, rm_, config_, adjusted, mode,
                                       std::move(on_complete));
  }
  retained_.push_back(am);
  return am;
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

std::shared_ptr<AmBase> JobClient::submit(const JobSpec& spec, ExecutionMode mode,
                                          AmBase::CompletionCallback on_complete) {
  assert(spec.logic != nullptr);
  const int seq = next_job_seq_++;
  JobSpec adjusted = spec;
  // Unique output/staging paths so concurrent attempts (speculative
  // execution) never collide in HDFS.
  adjusted.output_path += "." + std::string(mode_name(mode)) + "." + std::to_string(seq);
  const std::string staging_dir =
      "/tmp/staging/" + adjusted.name + "." + std::to_string(seq);

  // The client observes completion at its next 1 s status poll, not
  // the instant the AM unregisters.
  const sim::SimTime submit_time = sim_.now();

  // One submission may run several AM attempts (the RM re-executes the
  // AM when its container dies with a node); the shared state tracks
  // the current attempt so RM callbacks always reach the live AM.
  struct Submission {
    std::shared_ptr<AmBase> am;
    int restarts = 0;                 // AM re-executions so far
    std::size_t lost_containers = 0;  // accumulated over abandoned attempts
    bool started = false;
    bool reported = false;
  };
  auto sub = std::make_shared<Submission>();

  auto shared_cb = std::make_shared<AmBase::CompletionCallback>(std::move(on_complete));
  AmBase::CompletionCallback wrapped = [this, submit_time, sub,
                                        shared_cb](const JobResult& result) {
    if (sub->reported) return;  // only the final attempt reports
    sub->reported = true;
    JobResult adjusted_result = result;
    adjusted_result.profile.am_restarts = sub->restarts;
    adjusted_result.profile.lost_containers += sub->lost_containers;
    const sim::SimTime seen = client_poll_time(submit_time, sim_.now(), config_.client_poll);
    sim_.schedule_at(seen, [seen, shared_cb, adjusted_result]() mutable {
      adjusted_result.profile.client_done_time = seen;
      (*shared_cb)(adjusted_result);
    }, "client:poll-complete");
  };

  auto am = make_app_master(adjusted, mode, wrapped);
  am->set_submit_time(submit_time);
  sub->am = am;

  // Step 1: job-id RPC; step 2: upload jar + conf; step 3: submit.
  const cluster::NodeId client_node = cluster_.master();
  sim_.schedule_after(rm_.config().rpc_latency, [this, sub, adjusted, mode, wrapped, submit_time,
                                                 staging_dir, client_node] {
    if (sub->am->was_killed()) return;  // killed during the submission RPC
    upload_job_files(staging_dir, client_node, [this, sub, adjusted, mode, wrapped, submit_time] {
      if (sub->am->was_killed()) return;
      const yarn::AppId app = rm_.submit_application(
          sub->am->spec().name,
          [this, sub, adjusted, mode, wrapped, submit_time](const yarn::Container& container) {
            if (!sub->started) {
              sub->started = true;
              if (!sub->am->was_killed()) sub->am->start(container);
              return;
            }
            // AM re-execution: the previous attempt died with its
            // container. Task state died with it, so a fresh AM reruns
            // the whole job under the same application (new attempt
            // output paths avoid HDFS collisions with the old one).
            ++sub->restarts;
            sub->lost_containers += sub->am->live_profile().lost_containers;
            JobSpec retry = adjusted;
            retry.output_path += "_am" + std::to_string(sub->restarts);
            auto fresh = make_app_master(retry, mode, wrapped);
            fresh->set_submit_time(submit_time);
            fresh->set_app_id(sub->am->app_id());
            sub->am = fresh;
            fresh->start(container);
          });
      sub->am->set_app_id(app);
      rm_.set_am_lost_handler(app, [sub] { sub->am->abandon(); });
      rm_.set_am_failure_handler(app, [sub, wrapped] {
        // AM attempt budget exhausted: the RM already unregistered the
        // app; report a clean failure to the client.
        JobResult result;
        result.succeeded = false;
        result.profile = sub->am->live_profile();
        wrapped(result);
      });
      // A kill that raced the submission would have missed the app id;
      // reconcile so the AM container is reclaimed.
      if (sub->am->was_killed()) rm_.finish_application(app);
    });
  }, "client:submit");
  return am;
}

}  // namespace mrapid::mr
